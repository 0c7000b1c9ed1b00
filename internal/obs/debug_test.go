package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Add("test.counter", 7)
	bound, stop, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if !strings.Contains(bound, ":") {
		t.Fatalf("bound address %q has no port", bound)
	}

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not a snapshot: %v\n%s", err, body)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "test.counter" || snap.Counters[0].Value != 7 {
		t.Errorf("snapshot = %+v", snap.Counters)
	}

	if code, _ := get("/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars = %d", code)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
}

// TestDebugServerNoRegistry: without a registry the /metrics route is
// absent but pprof still serves.
func TestDebugServerNoRegistry(t *testing.T) {
	bound, stop, err := StartDebugServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without a registry = %d, want 404", resp.StatusCode)
	}
}

// TestDebugServerBadAddr: an unbindable address surfaces as an error,
// not a background panic.
func TestDebugServerBadAddr(t *testing.T) {
	if _, _, err := StartDebugServer("256.256.256.256:1", nil); err == nil {
		t.Error("expected an error for an unbindable address")
	}
}

// TestDebugServerGracefulStop: with no requests in flight, stop drains
// cleanly, returns nil, and the port is released.
func TestDebugServerGracefulStop(t *testing.T) {
	bound, stop, err := StartDebugServer("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := stop(); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	if _, err := http.Get("http://" + bound + "/metrics"); err == nil {
		t.Fatal("server still answering after stop")
	}
}

// TestDebugServerDrainBounded: a connection stuck mid-request cannot
// stall shutdown beyond DefaultDrainTimeout — stop force-closes it and
// reports the exhausted deadline.
func TestDebugServerDrainBounded(t *testing.T) {
	bound, stop, err := StartDebugServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A partial request pins the connection in the active state: the
	// server has read bytes but no complete request ever arrives.
	conn, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server observe the bytes
	start := time.Now()
	err = stop()
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stop = %v, want context.DeadlineExceeded (drain exhausted)", err)
	}
	if elapsed > DefaultDrainTimeout+2*time.Second {
		t.Fatalf("stop took %v, far beyond the %v drain budget", elapsed, DefaultDrainTimeout)
	}
	// The straggler was cut loose, not left hanging.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("stuck connection survived the forced close")
	}
}
