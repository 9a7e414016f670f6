package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// goldenQuick pins the sha256 of every seed-1 quick artifact, E1..E21, as
// Render writes it. A change that moves any digest changes an artifact:
// either it is a bug, or the new digest goes here with the reason in the
// commit message.
var goldenQuick = map[string]string{
	"E1":  "c21fe5e88920d5d1178e0ba0f0344520ee48a090e275d00941f6dc13364c651f",
	"E2":  "08245bd556a99d657d32553883c32168bccfe5f3c2f3bc38884cc39d63b0e560",
	"E3":  "fc409a9b8fdc4f75201326e320a3a2ad2b37a965bd83b2f960a21e72d816fef6",
	"E4":  "d54dc639d4be1938cfe0e9aba1820fde982503ce80a9939bccbe6214ae3b000a",
	"E5":  "cce7e49123fc0a467a499e95c1bc31a24e38980c119bd1efbd9ff3ba04ca7798",
	"E6":  "cb6299f08ff44004f8f29d1f5e810a2e58d4a008bfe2a93f28799fbec2a825ee",
	"E7":  "d178cf6b9a65ee1ddbd8ac1d49e1a319286526a64fee58022ab08986254ddb7f",
	"E8":  "7179db9789425cc88feae0f2fd7c82fd0b058676952e970eb1bc4bb10a8c4161",
	"E9":  "d7776b6a63a3c00baaddc27a772a095f44604db92bee2afd67eec605e1ae235e",
	"E10": "d28f5a2c2c9937f709a51c71d819431b9824085821b4c10008bc4fb89d79d84a",
	"E11": "fbf514ffb00fa2750b13dc9787a8d47d975bc654cf7f90650ed3a5e696d0eea9",
	"E12": "efd72ba2cfd073cf022bb5d7473b2f93e4151bd7b6ff2fdfff83b94241696ed6",
	"E13": "9a79a869029f84885197cc1d72ca4b2521853ff2db593506d219f65115957084",
	"E14": "3752d915bfa59310ffc95e605a34d18e566c78771c4333872022f51fd8512f98",
	"E15": "f8799503eb5773cb6ecfec7373521670b78139a81014e3971a2ed34212f2c27e",
	"E16": "4c1b7c38916fa4c917db8d1ccf212ce720f141623a9cb944f6672b31b4131661",
	"E17": "8704df7bc833eae594998565ccb04353d9d9a51b556257f14371017eadfa7943",
	"E18": "4446ccb933d5278cb3d4fe25f7ee9761ba21207c51107a145bbee3a45bdfed39",
	"E19": "1add41c4a123c3a86d7f0ee4f303e96ca4cdd06206f5b3ef14caabd70848e2ac",
	"E20": "8dafb910809a269439a584e364121ff7d8facdf34cae7ed5d8cdc79e261e57af",
	"E21": "0d02ef2441c7a8e6a43b50c9cc3c9b882ed2e41e9aeadf0a2e3236980fd1ef90",
}

// fusesMultiplyAdd lists the architectures whose compiler backends fuse
// x*y + z into one rounding (the useFMA rules of the ssa rule files),
// which changes float results. Every other backend, 386 included,
// rounds each operation as amd64 does.
var fusesMultiplyAdd = map[string]bool{
	"arm64": true, "loong64": true, "ppc64": true, "ppc64le": true, "riscv64": true, "s390x": true,
}

// TestQuickArtifactsGolden is the byte-identity gate: other tests check
// that two runs agree, this one that the artifacts match the pinned
// bytes. The digests hold wherever multiply-adds are not fused.
func TestQuickArtifactsGolden(t *testing.T) {
	if fusesMultiplyAdd[runtime.GOARCH] {
		t.Skipf("%s fuses multiply-adds; the digests are pinned without fusion", runtime.GOARCH)
	}
	for _, e := range append(Experiments(), Extensions()...) {
		r, err := e.Exec(1, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenQuick[e.Name] {
			t.Errorf("%s: artifact sha256 %s, pinned %q", e.Name, got, goldenQuick[e.Name])
		}
	}
}
