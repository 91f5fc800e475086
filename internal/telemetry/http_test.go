package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Handler is the embeddable form of the surface — sgserve mounts it
// next to its job API. It must serve the same endpoints without owning
// a listener, and tolerate a nil registry.
func TestHandlerEmbeddable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("handler.hits").Add(4)
	ts := httptest.NewServer(Handler(reg))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if snap.Counters["handler.hits"] != 4 {
		t.Fatalf("/stats counters = %+v", snap.Counters)
	}
	pr, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", pr.StatusCode)
	}

	nilTS := httptest.NewServer(Handler(nil))
	defer nilTS.Close()
	nr, err := http.Get(nilTS.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Body.Close()
	if nr.StatusCode != http.StatusOK {
		t.Fatalf("nil-registry /stats status = %d", nr.StatusCode)
	}
}

func TestServeHTTP(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served").Add(9)
	addr, shutdown, err := ServeHTTP("127.0.0.1:0", reg)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer func() { _ = shutdown() }()

	get := func(path string) string {
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/stats")), &snap); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if snap.Counters["served"] != 9 {
		t.Fatalf("/stats counters = %+v", snap.Counters)
	}
	if !strings.Contains(get("/metrics"), "sg_served_total 9") {
		t.Fatal("/metrics missing the served counter")
	}
	if !strings.Contains(get("/debug/pprof/"), "profile") {
		t.Fatal("/debug/pprof/ index missing")
	}
}

func TestServeHTTPBadAddr(t *testing.T) {
	t.Parallel()
	if _, _, err := ServeHTTP("256.256.256.256:1", nil); err == nil {
		t.Fatal("expected error for unusable address")
	}
}

// Two handlers in one process must each report their own registry on
// /stats and /metrics. sgserve -fleet is exactly this shape: the job API
// and the coordinator telemetry surfaces coexist.
func TestHandlerScopedPerRegistry(t *testing.T) {
	regA := NewRegistry()
	regA.Counter("scoped.a").Add(1)
	regB := NewRegistry()
	regB.Counter("scoped.b").Add(2)

	tsA := httptest.NewServer(Handler(regA))
	defer tsA.Close()
	tsB := httptest.NewServer(Handler(regB))
	defer tsB.Close()

	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	stats := func(url string) Snapshot {
		var snap Snapshot
		if err := json.Unmarshal([]byte(get(url+"/stats")), &snap); err != nil {
			t.Fatalf("/stats not JSON: %v", err)
		}
		return snap
	}
	a, b := stats(tsA.URL), stats(tsB.URL)
	if a.Counters["scoped.a"] != 1 || a.Counters["scoped.b"] != 0 {
		t.Fatalf("handler A's /stats reports the wrong registry: %+v", a.Counters)
	}
	if b.Counters["scoped.b"] != 2 || b.Counters["scoped.a"] != 0 {
		t.Fatalf("handler B's /stats reports the wrong registry: %+v", b.Counters)
	}
	ma, mb := get(tsA.URL+"/metrics"), get(tsB.URL+"/metrics")
	if !strings.Contains(ma, "sg_scoped_a_total 1") || strings.Contains(ma, "sg_scoped_b_total") {
		t.Fatalf("handler A's /metrics reports the wrong registry:\n%s", ma)
	}
	if !strings.Contains(mb, "sg_scoped_b_total 2") || strings.Contains(mb, "sg_scoped_a_total") {
		t.Fatalf("handler B's /metrics reports the wrong registry:\n%s", mb)
	}
}

// /metrics renders the registry's snapshot in the Prometheus text
// format, with the exposition content type.
func TestHandlerMetricsEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("metrics.hits").Add(4)
	reg.Histogram("metrics.lat", []int64{16, 32}).Observe(10)
	ts := httptest.NewServer(Handler(reg))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, PrometheusContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE sg_metrics_hits_total counter",
		"sg_metrics_hits_total 4",
		`sg_metrics_lat_bucket{le="+Inf"} 1`,
		"sg_metrics_lat_count 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Byte-determinism over the wire: the same (unchanged) registry
	// serves the same body twice.
	again, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Body.Close()
	body2, err := io.ReadAll(again.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(body2) {
		t.Fatal("/metrics body changed between identical snapshots")
	}
}
