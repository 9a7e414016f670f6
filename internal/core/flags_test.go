package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cloudmcp/internal/clouddir"
	"cloudmcp/internal/mgmt"
	"cloudmcp/internal/mgmtdb"
	"cloudmcp/internal/reconcile"
)

// bind parses args through a fresh flag set and loads the Config.
func bind(t *testing.T, args ...string) (Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	load := BindConfigFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	return load()
}

func scenarioPaths(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("glob scenarios: %v (%d found)", err, len(paths))
	}
	return paths
}

func loadFile(t *testing.T, path string) Config {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg, err := LoadConfig(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return cfg
}

// flatten turns a JSON document into -set arguments, one per leaf
// (scalars, arrays and empty objects).
func flatten(prefix string, v any, out *[]string) {
	if obj, ok := v.(map[string]any); ok && len(obj) > 0 {
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, obj[k], out)
		}
		return
	}
	raw, _ := json.Marshal(v)
	*out = append(*out, "-set", prefix+"="+string(raw))
}

// Every checked-in scenario, given as -set pairs alone, loads to the
// same Config as the file itself: the flags and the file are one schema.
func TestBindConfigFlagsScenariosAsSets(t *testing.T) {
	for _, path := range scenarioPaths(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(src))
			dec.UseNumber()
			var doc map[string]any
			if err := dec.Decode(&doc); err != nil {
				t.Fatal(err)
			}
			var args []string
			flatten("", doc, &args)
			got, err := bind(t, args...)
			if err != nil {
				t.Fatalf("bind %v: %v", args, err)
			}
			if want := loadFile(t, path); !reflect.DeepEqual(got, want) {
				t.Fatalf("-set form of %s:\n got %+v\nwant %+v", path, got, want)
			}
			fromFile, err := bind(t, "-config", path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromFile, got) {
				t.Fatalf("-config %s differs from LoadConfig", path)
			}
		})
	}
}

func TestBindConfigFlagsPrecedence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	src := `{"seed": 7, "topology": {"hosts": 12}, "director": {"cells": 3}}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	def, err := bind(t)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, DefaultConfig(1)) {
		t.Fatalf("no flags: got %+v, want DefaultConfig(1)", def)
	}
	if cfg, err := bind(t, "-seed", "4"); err != nil || cfg.Seed != 4 {
		t.Fatalf("-seed 4 alone: seed %d, err %v", cfg.Seed, err)
	}

	// The file's seed holds unless -seed is given explicitly.
	cfg, err := bind(t, "-config", path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.Topology.Hosts != 12 || cfg.Director.Cells != 3 {
		t.Fatalf("file alone: %+v", cfg)
	}
	if cfg, err = bind(t, "-config", path, "-seed", "9"); err != nil || cfg.Seed != 9 {
		t.Fatalf("explicit -seed over the file: seed %d, err %v", cfg.Seed, err)
	}

	// -set beats both, in command-line order, and keeps sibling fields.
	cfg, err = bind(t, "-set", "seed=11", "-seed", "9", "-config", path,
		"-set", "topology.hosts=20", "-set", "topology.hosts=24",
		"-set", "director.placement=sticky-org", "-set", "director.fastProvisioning=false")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 11 || cfg.Topology.Hosts != 24 || cfg.Director.Cells != 3 ||
		cfg.Director.Placement != clouddir.PlaceStickyOrg || cfg.Director.FastProvisioning {
		t.Fatalf("-set precedence: %+v", cfg)
	}
}

// The loader's overrides apply after every -set, and a bad one fails
// naming its path.
func TestBindConfigFlagsOverridesFollowSets(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	load := BindConfigFlags(fs)
	if err := fs.Parse([]string{"-set", "topology.hosts=20", "-set", "director.cells=3"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := load("topology.hosts=24", "plane.shards=2")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.Hosts != 24 || cfg.Director.Cells != 3 || cfg.Plane.Shards != 2 {
		t.Fatalf("overrides: %+v", cfg)
	}
	if cfg, err := load(); err != nil || cfg.Topology.Hosts != 20 || cfg.Plane.Shards != 1 {
		t.Fatalf("an override leaked into the next load: %+v, %v", cfg, err)
	}
	if _, err := load("topology.hosts=abc"); err == nil || !strings.Contains(err.Error(), "topology.hosts") {
		t.Fatalf("bad override: err = %v, want it to name topology.hosts", err)
	}
}

func TestBindConfigFlagsRejectsNamingThePath(t *testing.T) {
	cases := []struct {
		arg, path string
	}{
		{"topology.hostz=4", "topology.hostz"},        // unknown path
		{"topology.hosts=abc", "topology.hosts"},      // type mismatch
		{"seed.x=1", "seed.x"},                        // through a non-object
		{"plane.shards.n=2", "plane.shards.n"},        // through a non-object, nested
		{"reconcile.intervl=60", "reconcile.intervl"}, // misspelled leaf
		{"director.fastProvisioning=yes", "director.fastProvisioning"},
	}
	for _, c := range cases {
		_, err := bind(t, "-set", c.arg)
		if err == nil || !strings.Contains(err.Error(), c.path) {
			t.Errorf("-set %s: err = %v, want an error naming %s", c.arg, err, c.path)
		}
	}
	for _, arg := range []string{"noequals", "=1", "a..b=1"} {
		if _, err := bind(t, "-set", arg); err == nil {
			t.Errorf("-set %s accepted", arg)
		}
	}
	// Values are validated where files are: by the decoder or in Apply.
	for _, arg := range []string{"mgmt.granularity=weird", "plane.db=nope", "faults.rate=2", "faults.rate=-0.1", "policy=zzz"} {
		if _, err := bind(t, "-set", arg); err == nil {
			t.Errorf("-set %s accepted", arg)
		}
	}
}

func TestBindConfigFlagsEmptyReconcileEnablesAllControllers(t *testing.T) {
	cfg, err := bind(t, "-set", "reconcile={}")
	if err != nil {
		t.Fatal(err)
	}
	want := reconcile.DefaultConfig()
	want.Controllers = reconcile.ControllerNames()
	if cfg.Reconcile == nil || !reflect.DeepEqual(*cfg.Reconcile, want) {
		t.Fatalf("reconcile={} = %+v, want %+v", cfg.Reconcile, want)
	}
}

// An empty optional block loads its package's defaults, and a field the
// package config keeps off the wire is an unknown field.
func TestBindConfigFlagsEmptyBlocksLoadPackageDefaults(t *testing.T) {
	for _, tc := range []struct {
		set  string
		got  func(Config) any
		want any // nil: the -set must be rejected
	}{
		{"mgmt.database={}", func(c Config) any { return c.Mgmt.Database }, ptr(mgmtdb.DefaultConfig())},
		{"faults.retry={}", func(c Config) any { return c.Mgmt.Retry }, mgmt.DefaultRetryPolicy()},
		{`faults.retry={"adaptive":true}`, nil, nil},
	} {
		cfg, err := bind(t, "-set", tc.set)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("-set %s: err = %v, want an unknown-field rejection", tc.set, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-set %s: %v", tc.set, err)
		} else if got := tc.got(cfg); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-set %s = %+v, want %+v", tc.set, got, tc.want)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// scenarios/default.json is what mcpsim -dump-config prints, byte for
// byte; a Config field added to WriteDefaultConfig must land in both.
func TestDefaultScenarioMatchesDumpConfig(t *testing.T) {
	var want bytes.Buffer
	if err := WriteDefaultConfig(&want, 1); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "default.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("scenarios/default.json drifted from WriteDefaultConfig(w, 1):\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// A -config file holding two documents fails instead of running the
// first; the checked-in one-line files still load.
func TestBindConfigFlagsRejectsTwoDocumentFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.json")
	if err := os.WriteFile(path, []byte("{\"topology\":{\"hosts\":8}}\n{\"topology\":{\"hosts\":0}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if cfg, err := bind(t, "-config", path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("two-document file: hosts %d, err %v, want an error naming the file", cfg.Topology.Hosts, err)
	}
	for _, path := range scenarioPaths(t) {
		if _, err := bind(t, "-config", path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// DefaultLoader with no overrides is DefaultConfig, and its overrides
// merge the way -set does.
func TestDefaultLoader(t *testing.T) {
	cfg, err := DefaultLoader(7)()
	if err != nil || !reflect.DeepEqual(cfg, DefaultConfig(7)) {
		t.Fatalf("DefaultLoader(7)() = %+v, %v; want DefaultConfig(7)", cfg, err)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	load := BindConfigFlags(fs)
	args := []string{"-seed", "7", "-set", "plane.shards=2", "-set", `reconcile={"depth":3}`, "-set", "faults=null"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want, err := load()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DefaultLoader(7)("plane.shards=2", `reconcile={"depth":3}`, "faults=null")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("DefaultLoader overrides = %+v, %v; want %+v", got, err, want)
	}
	if _, err := DefaultLoader(7)("plane.shardz=2"); err == nil || !strings.Contains(err.Error(), "plane.shardz") {
		t.Fatalf("bad override: err = %v, want it to name plane.shardz", err)
	}
}

// FuzzLoadConfig feeds a scenario document and one path=value override
// through the -config decode and -set merge BindConfigFlags uses. Any
// input may be rejected, but nothing may panic, and every Config the
// loader accepts either builds with New or New returns an error.
func FuzzLoadConfig(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("glob scenarios: %v (%d found)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), "")
	}
	for _, g := range []Grid{e17.grid(60), e18.grid(60), e20.grid(60), e21.grid(60)} {
		sets := append([]string(nil), g.Base...)
		for _, d := range g.Dims {
			for _, l := range d.Levels {
				sets = append(sets, l.Sets...)
			}
		}
		for _, set := range sets {
			f.Add("{}", set)
		}
	}
	f.Add(`{"topology":{"hosts":8}} junk`, "plane.shards=9")
	f.Fuzz(func(t *testing.T, doc, override string) {
		m, err := decodeOver(strings.NewReader(doc), map[string]any{})
		if err != nil {
			return
		}
		if m == nil {
			m = map[string]any{}
		}
		var overrides []string
		if override != "" {
			overrides = append(overrides, override)
		}
		cfg, err := setFlag(nil).load(m, overrides)
		if err != nil {
			return
		}
		// New allocates per host, datastore, template, shard, cell and
		// reconcile worker; past these sizes an input tests memory, not
		// the configuration surface.
		const most = 64
		top := cfg.Topology
		if top.Hosts > most || top.Datastores > most || top.Templates > most ||
			cfg.Plane.Shards > most || cfg.Director.Cells > most ||
			(cfg.Reconcile != nil && cfg.Reconcile.Depth > most) {
			t.Skip("too large to build")
		}
		_, _ = New(cfg)
	})
}
