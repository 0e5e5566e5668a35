package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests regenerate each experiment in-process at the
// recorded settings (scale 0.5, seed 1) and diff the rendered text
// against the checked-in <name>_output.txt files at the repository
// root. Because every experiment writes results into index-addressed
// slots and derives all randomness from (Seed, cell), the regenerated
// text is byte-identical for any worker count; only wall-clock lines
// and the Table 3 runtime column are environment-dependent, and the
// comparison masks exactly those.

// goldenOpts are the settings the checked-in files were produced with
// (`go run ./cmd/experiments -exp all`).
func goldenOpts() Options {
	return Options{Scale: 0.5, Seed: 1}
}

var timingLine = regexp.MustCompile(`^-- .* done in .*$`)

// normalizeGolden drops the wall-clock footer lines and trailing blank
// lines, which are the only parts of the command output that are not a
// pure function of (experiment, scale, seed).
func normalizeGolden(s string) string {
	var out []string
	for _, ln := range strings.Split(s, "\n") {
		if timingLine.MatchString(ln) {
			continue
		}
		out = append(out, ln)
	}
	return strings.TrimRight(strings.Join(out, "\n"), "\n")
}

var (
	decimalToken = regexp.MustCompile(`^\d+\.\d+$`)
	dashRun      = regexp.MustCompile(`^-+$`)
)

// maskRuntimes rewrites the Table 3 section so the mean-seconds column
// (machine-dependent) compares equal: decimal tokens become '#' and
// runs of whitespace collapse. The header rule's dash runs become '#'
// too, since a column's rule is as wide as its widest runtime (10.80
// and 9.80 give rules of different widths). Sizes and task names are
// integers and words, so they survive the masking and stay compared.
func maskRuntimes(s string) string {
	lines := strings.Split(s, "\n")
	in := false
	for i, ln := range lines {
		if strings.HasPrefix(ln, "Table 3:") {
			in = true
			continue
		}
		if !in {
			continue
		}
		fields := strings.Fields(ln)
		for j, f := range fields {
			if decimalToken.MatchString(f) || dashRun.MatchString(f) {
				fields[j] = "#"
			}
		}
		lines[i] = strings.Join(fields, " ")
	}
	return strings.Join(lines, "\n")
}

// checkGolden renders one experiment and diffs it against its file.
func checkGolden(t *testing.T, name string) {
	t.Helper()
	path := filepath.Join("..", "..", name+"_output.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var buf bytes.Buffer
	if err := RenderExperiment(&buf, name, goldenOpts()); err != nil {
		t.Fatalf("regenerating %s: %v", name, err)
	}
	got := normalizeGolden(buf.String())
	want := normalizeGolden(string(raw))
	if name == "table2" {
		got, want = maskRuntimes(got), maskRuntimes(want)
	}
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	if len(gl) != len(wl) {
		t.Errorf("%s: regenerated %d lines, golden file has %d", name, len(gl), len(wl))
	}
	shown := 0
	for i := 0; i < len(gl) && i < len(wl) && shown < 5; i++ {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d differs:\n  got:  %q\n  want: %q", name, i+1, gl[i], wl[i])
			shown++
		}
	}
	if shown == 0 {
		t.Errorf("%s: outputs differ only in length", name)
	}
}

func TestGoldenFigure5(t *testing.T) {
	checkGolden(t, "figure5")
}

func TestGoldenFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale figure 2 regeneration skipped in -short mode")
	}
	checkGolden(t, "figure2")
}

func TestGoldenTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale table 1 regeneration skipped in -short mode")
	}
	checkGolden(t, "table1")
}

// TestGoldenFull regenerates the experiments that take minutes to
// hours (table2 alone runs every transfer method over eight tasks at
// scale 0.5). It only runs when TRANSER_GOLDEN=1 is set, and needs an
// explicit -timeout well above go test's 10-minute default:
//
//	TRANSER_GOLDEN=1 go test -run TestGoldenFull -timeout 120m ./internal/experiments/
func TestGoldenFull(t *testing.T) {
	if os.Getenv("TRANSER_GOLDEN") == "" {
		t.Skip("set TRANSER_GOLDEN=1 to regenerate the slow full-scale experiments")
	}
	for _, name := range []string{"table2", "figure6", "figure7", "table4"} {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name)
		})
	}
}
