package dist_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wishbone/internal/dist"
	"wishbone/internal/runtime"
	"wishbone/internal/server"
)

// freePort reserves an ephemeral port and releases it for the child
// process to bind (a small race, but the kernel does not reuse the port
// immediately and the test retries nothing else on it).
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// TestDistMultiProcess is the end-to-end distributed deployment: build
// the real wbserved binary, run two instances as separate OS processes,
// and place a 2×(N/2) speech simulation across them — the Result must be
// byte-identical to the local single-process run.
func TestDistMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "wbserved")
	build := exec.Command("go", "build", "-o", bin, "wishbone/cmd/wbserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building wbserved: %v\n%s", err, out)
	}

	ctx := context.Background()
	urls := make([]string, 2)
	for i := range urls {
		port := freePort(t)
		proc := exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
		if err := proc.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			proc.Process.Kill()
			proc.Wait()
		})
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", port)
	}
	for _, u := range urls {
		c := server.NewClient(u, nil)
		deadline := time.Now().Add(15 * time.Second)
		for !c.Healthy(ctx) {
			if time.Now().After(deadline) {
				t.Fatalf("wbserved at %s never became healthy", u)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	spec, cfg := speechConfig(t)
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.New(urls, nil)
	res, distributed, err := coord.Run(ctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !distributed {
		t.Fatal("multi-process run fell back to local execution")
	}
	if *res != *ref {
		t.Fatalf("multi-process result diverges from local run:\nref: %+v\ngot: %+v", *ref, *res)
	}
	if res.MsgsSent == 0 || res.ServerEmits == 0 {
		t.Fatalf("degenerate run: %+v", *res)
	}
}

// startWbserved builds (once per call site, the go build cache makes the
// repeats cheap) and launches one wbserved OS process, waiting until it
// answers health checks.
func startWbserved(t *testing.T, bin string) (string, *exec.Cmd) {
	t.Helper()
	ctx := context.Background()
	port := freePort(t)
	proc := exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		proc.Process.Kill()
		proc.Wait()
	})
	url := fmt.Sprintf("http://127.0.0.1:%d", port)
	c := server.NewClient(url, nil)
	deadline := time.Now().Add(15 * time.Second)
	for !c.Healthy(ctx) {
		if time.Now().After(deadline) {
			t.Fatalf("wbserved at %s never became healthy", url)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return url, proc
}

// TestDistProcessKillRecovery is the end-to-end crash drill: two real
// wbserved OS processes host the shards, and one is SIGKILLed at a
// window boundary mid-run. The coordinator's retries exhaust against the
// dead port, the host is declared down, its origins reopen on the
// surviving process from the last checkpoint — and the Result is
// byte-identical to the uninterrupted local run.
func TestDistProcessKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "wbserved")
	build := exec.Command("go", "build", "-o", bin, "wishbone/cmd/wbserved")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building wbserved: %v\n%s", err, out)
	}

	spec, cfg := speechConfig(t)
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for killAfter := 1; killAfter <= 2; killAfter++ {
		url0, proc0 := startWbserved(t, bin)
		url1, _ := startWbserved(t, bin)
		chaos := &chaosTransport{
			base:      http.DefaultTransport,
			target:    strings.TrimPrefix(url0, "http://"),
			killAfter: killAfter,
			cutOnKill: true,
			onKill: func() {
				proc0.Process.Kill()
				proc0.Wait()
			},
		}
		var recovered []runtime.RecoveryEvent
		coord := fastRetry(dist.NewWithOptions([]string{url0, url1}, dist.Options{
			HTTPClient: &http.Client{Transport: chaos},
			OnRecover:  func(ev runtime.RecoveryEvent) { recovered = append(recovered, ev) },
		}))
		got, distributed, err := coord.Run(context.Background(), spec, cfg)
		if err != nil {
			t.Fatalf("killAfter=%d: %v", killAfter, err)
		}
		if !distributed || !chaos.didKill() || len(recovered) == 0 {
			t.Fatalf("killAfter=%d: kill never exercised recovery (distributed=%v killed=%v recoveries=%d)",
				killAfter, distributed, chaos.didKill(), len(recovered))
		}
		if *got != *ref {
			t.Fatalf("killAfter=%d: post-kill result diverges:\nref: %+v\ngot: %+v", killAfter, *ref, *got)
		}
	}
}
