package main

import (
	"errors"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestHelperCLIMain is not a test: it is the child process the shell
// tests re-exec, running the real main() with arguments passed through
// the environment.
func TestHelperCLIMain(t *testing.T) {
	if os.Getenv("TSUNAMI_CLI_HELPER") != "1" {
		t.Skip("helper process for the shell tests")
	}
	os.Args = append([]string{"tsunami-cli"}, strings.Fields(os.Getenv("TSUNAMI_CLI_ARGS"))...)
	main()
}

// cli re-execs the test binary as the shell with args, feeding it stdin.
func cli(args, stdin string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperCLIMain")
	cmd.Env = append(os.Environ(), "TSUNAMI_CLI_HELPER=1", "TSUNAMI_CLI_ARGS="+args)
	cmd.Stdin = strings.NewReader(stdin)
	return cmd
}

// modes are the shell's two serve modes: one LiveStore, or shards.
var modes = map[string]string{
	"default": "",
	"sharded": "-shards 2",
}

// TestInsertMergeInsertCounts pipes an insert, a merge and a second insert
// into the shell: `count`, `trace count` and `explain` must all see the
// two rows, the merged one and the buffered one, in every serve mode, and
// `explain` must answer a query over the whole table (every shard of a
// sharded shell) as `count` does. A last insert past the top of d0 lands in
// the other shard of a sharded shell, and `stats` must count both buffered
// rows, not only shard 0's.
func TestInsertMergeInsertCounts(t *testing.T) {
	const script = "insert -5,1,1\nmerge\ninsert -7,1,1\ncount d0<=-1\ntrace count d0<=-1\nexplain d0<=-1\n" +
		"count d0>=2000\nexplain d0>=2000\ninsert 2000000,1,1\nstats\nquit\n"
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			out, err := cli("-dataset uniform -rows 3000 -dims 3 "+mode, script).CombinedOutput()
			if err != nil {
				t.Fatalf("%v; output:\n%s", err, out)
			}
			got := regexp.MustCompile(`count=(\d+)`).FindAllStringSubmatch(string(out), -1)
			if len(got) != 5 || got[0][1] != "2" || got[1][1] != "2" || got[2][1] != "2" {
				t.Fatalf("count, trace and explain should all answer count=2, got %v; output:\n%s", got, out)
			}
			if got[3][1] != got[4][1] {
				t.Fatalf("count d0>=2000 answers count=%s, explain count=%s; output:\n%s", got[3][1], got[4][1], out)
			}
			if m := regexp.MustCompile(`(\d+) buffered inserts`).FindStringSubmatch(string(out)); m == nil || m[1] != "2" {
				t.Fatalf("stats should count 2 buffered inserts, got %v; output:\n%s", m, out)
			}
		})
	}
}

// TestMetricsBindFailureExitsNonZero pre-binds a listener and starts the
// CLI with -metrics pointed at the occupied address: every serve mode
// must report the listen error and exit non-zero — not come up serving
// with no endpoint while the operator scrapes a port someone else holds.
func TestMetricsBindFailureExitsNonZero(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			out, err := cli("-dataset uniform -rows 500 -dims 3 -metrics "+addr+" "+mode, "").CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("CLI with an occupied -metrics address exited cleanly; output:\n%s", out)
			}
			if code := ee.ExitCode(); code != 1 {
				t.Fatalf("exit code %d, want 1; output:\n%s", code, out)
			}
			if !strings.Contains(string(out), "tsunami-cli:") || !strings.Contains(string(out), "in use") {
				t.Fatalf("expected a listen error on stderr, got:\n%s", out)
			}
		})
	}
}

// TestBadSizeFlagsExitWithError starts the shell with dataset sizes it
// cannot build: each must print an error and exit 1, not panic (a panic
// exits 2 with a stack trace).
func TestBadSizeFlagsExitWithError(t *testing.T) {
	for _, args := range []string{
		"-dataset uniform -dims 0",
		"-dataset uniform -dims -2",
		"-dataset correlated -rows 100 -dims 0",
		"-dataset uniform -rows -5",
		"-dataset taxi -rows -5",
		"-dataset tpch -rows 0",
	} {
		t.Run(args, func(t *testing.T) {
			out, err := cli(args, "quit\n").CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("exited cleanly; output:\n%s", out)
			}
			if code := ee.ExitCode(); code != 1 || strings.Contains(string(out), "panic") ||
				!strings.Contains(string(out), "tsunami-cli: -") {
				t.Fatalf("exit code %d, want 1 with a flag error; output:\n%s", code, out)
			}
		})
	}
}
