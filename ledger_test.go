package cloudmcp

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// ledgerColumns is the header of DESIGN.md's package ledger, the table
// that answers "does this package pay for itself?" for every directory
// under internal/.
var ledgerColumns = []string{
	"Package", "What it is", "Lines (prod / test)", "Production importers",
	"Exercised by", "Tier-1 s", "Off-path cost", "Verdict",
}

// TestPackageLedgerCoversInternal fails when a directory under internal/
// has no ledger row, when a row names a package that does not exist or
// appears twice, or when a row leaves a column empty or gives a verdict
// other than keep or cut.
func TestPackageLedgerCoversInternal(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ledgerRows(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			dirs["internal/"+e.Name()] = true
		}
	}
	seen := map[string]bool{}
	for _, cells := range rows {
		pkg := strings.Trim(cells[0], "`")
		switch {
		case !dirs[pkg]:
			t.Errorf("ledger row %q names no directory under internal/", cells[0])
		case seen[pkg]:
			t.Errorf("ledger has two rows for %s", pkg)
		}
		seen[pkg] = true
		for i, c := range cells {
			if c == "" {
				t.Errorf("ledger row %s: column %q is empty", pkg, ledgerColumns[i])
			}
		}
		if v := cells[len(cells)-1]; !strings.HasPrefix(v, "keep") && !strings.HasPrefix(v, "cut") {
			t.Errorf("ledger row %s: verdict %q is neither keep nor cut", pkg, v)
		}
	}
	for dir := range dirs { // order only affects error order
		if !seen[dir] {
			t.Errorf("%s has no row in DESIGN.md's package ledger", dir)
		}
	}
}

// ledgerRows returns the cells of every body row of the table whose
// header is ledgerColumns, trimmed of white space.
func ledgerRows(doc string) ([][]string, error) {
	header := "| " + strings.Join(ledgerColumns, " | ") + " |"
	_, table, ok := strings.Cut(doc, header+"\n")
	if !ok {
		return nil, fmt.Errorf("DESIGN.md has no table headed %s", header)
	}
	lines := strings.Split(table, "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "|---") {
		return nil, errors.New("the ledger header is not followed by a separator row")
	}
	var rows [][]string
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.TrimSuffix(strings.TrimPrefix(line, "|"), "|"), "|")
		if len(cells) != len(ledgerColumns) {
			return nil, fmt.Errorf("ledger row has %d cells, want %d: %s", len(cells), len(ledgerColumns), line)
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		rows = append(rows, cells)
	}
	return rows, nil
}
