package alveare_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runGoldenInput is the fixed input of TestCLIRunGolden: 200 lines of
// filler words in which only two blocks of 25 lines carry addresses, so
// some stream windows and some multi-core chunks are clean for the skip
// tiers to prove so, and the rest hold matches.
func runGoldenInput() string {
	r := rand.New(rand.NewSource(7))
	words := []string{"lorem", "ipsum", "dolor", "sit", "amet", "admin", "root", "guest", "x9"}
	hosts := []string{"acme", "corp", "mail"}
	tlds := []string{"com", "org", "net"}
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		hot := i/25 == 0 || i/25 == 5
		for j, n := 0, 3+r.Intn(7); j < n; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[r.Intn(len(words))])
			if hot && r.Float64() < 0.12 {
				fmt.Fprintf(&sb, "%d@%s.%s", r.Intn(100), hosts[r.Intn(len(hosts))], tlds[r.Intn(len(tlds))])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestCLIRunGolden pins what `alvearerun -all -stats` prints — every
// match and the simulated cycle counts — for one, two and four cores,
// each with both skip tiers, without the lazy-DFA gate and without the
// admission stage. The single-core runs stream the input in 1 KiB
// windows; the multi-core runs divide it among the cores. Regenerate
// with:
//
//	go test -run TestCLIRunGolden -update
func TestCLIRunGolden(t *testing.T) {
	in := filepath.Join(t.TempDir(), "in.txt")
	if err := os.WriteFile(in, []byte(runGoldenInput()), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, cores := range []string{"1", "2", "4"} {
		for _, tier := range []string{"", "-no-dfa", "-no-approx"} {
			args := []string{"-cores", cores, "-all", "-stats", "-chunk", "1024"}
			if tier != "" {
				args = append(args, tier)
			}
			args = append(args, `[a-z0-9]{3,8}@[a-z]+\.(com|org)`, in)
			out, code := run(t, "alvearerun", "", args...)
			if code != 0 {
				t.Fatalf("alvearerun %v: exit %d\n%s", args, code, out)
			}
			fmt.Fprintf(&sb, "== -cores %s %s\n%s", cores, tier, strings.ReplaceAll(out, in, "in.txt"))
		}
	}
	got := []byte(sb.String())
	golden := filepath.Join("testdata", "alvearerun_all_stats.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestCLIRunGolden -update` to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("alvearerun -all -stats drifted from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
