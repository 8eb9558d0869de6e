package serve

// Tiered-memory API surface: malformed tier specs must come back as 400s
// from every endpoint that accepts one, well-formed ones must simulate,
// and the async tierGrid arm must render the adaptation grid.

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"ascoma/internal/jobs"
)

func TestRunEndpointTiered(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/run", "application/json",
		strings.NewReader(`{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":32,
			"tiers":[{"capacityPct":30,"readCycles":40,"writeCycles":60},
			         {"capacityPct":70,"readCycles":120,"writeCycles":300}],
			"pagePolicy":"hybrid"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tiered run: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "execTimeCycles") {
		t.Errorf("tiered run response missing result: %s", body)
	}
}

// TestRunEndpointPolicyNoneHits: "none" and "" select the same model, so a
// "none" request after a "" one is a memory hit with the same body.
func TestRunEndpointPolicyNoneHits(t *testing.T) {
	s, ts := newTestServer(t)
	post := func(policy string) []byte {
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json",
			strings.NewReader(`{"arch":"AS-COMA","workload":"uniform","pressure":70,"scale":32,"pagePolicy":"`+policy+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run with pagePolicy %q: %d %s", policy, resp.StatusCode, body)
		}
		return body
	}
	cold := post("")
	before := s.cache.Stats()
	warm := post("none")
	after := s.cache.Stats()
	if after.Sims != before.Sims || after.MemHits != before.MemHits+1 {
		t.Errorf(`pagePolicy "none" after "" was not a memory hit: before %+v, after %+v`, before, after)
	}
	if string(warm) != string(cold) {
		t.Error(`pagePolicy "none" answered a different body than ""`)
	}
}

func TestRunEndpointTierValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		// Non-positive capacity.
		`{"arch":"AS-COMA","workload":"uniform","pressure":70,
		  "tiers":[{"capacityPct":0,"readCycles":40,"writeCycles":60},
		           {"capacityPct":100,"readCycles":120,"writeCycles":300}]}`,
		// Capacities not summing to 100.
		`{"arch":"AS-COMA","workload":"uniform","pressure":70,
		  "tiers":[{"capacityPct":30,"readCycles":40,"writeCycles":60}]}`,
		// Latency <= 0.
		`{"arch":"AS-COMA","workload":"uniform","pressure":70,
		  "tiers":[{"capacityPct":100,"readCycles":0,"writeCycles":60}]}`,
		`{"arch":"AS-COMA","workload":"uniform","pressure":70,
		  "tiers":[{"capacityPct":100,"readCycles":40,"writeCycles":-1}]}`,
		// Unknown policy name.
		`{"arch":"AS-COMA","workload":"uniform","pressure":70,"pagePolicy":"lru"}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestJobTierGridLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	st := postJob(t, ts.URL, `{"tierGrid":{"app":"uniform","scale":16,"pressures":[70],
		"fastShares":[50],"asymmetries":[4]}}`)
	if st.Kind != "tiergrid" {
		t.Fatalf("submitted status: %+v", st)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("final: %+v", final)
	}
	doc, ok := final.Result.(string)
	if !ok {
		t.Fatalf("tiergrid result: %#v", final.Result)
	}
	for _, want := range []string{"tiered-memory grid at 70% pressure", "fast 50% / slow x4", "MIG-NUMA"} {
		if !strings.Contains(doc, want) {
			t.Errorf("tiergrid document missing %q", want)
		}
	}
}

func TestJobTierGridValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, body := range []string{
		`{"tierGrid":{"app":"nonexistent"}}`,
		`{"tierGrid":{"app":"uniform","fastShares":[0]}}`,
		`{"tierGrid":{"app":"uniform","asymmetries":[-2]}}`,
		`{"tierGrid":{"app":"uniform","pagePolicy":"rr"}}`,
		`{"tierGrid":{"app":"uniform","format":"chart"}}`,
		`{"run":{"arch":"AS-COMA","workload":"uniform","pressure":70},"tierGrid":{"app":"uniform"}}`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestEstimateEndpointTiered(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/v1/estimate", "application/json",
		strings.NewReader(`{"workload":"uniform","scale":8,"pressures":[70],
			"tiers":[{"capacityPct":25,"readCycles":50,"writeCycles":50},
			         {"capacityPct":75,"readCycles":400,"writeCycles":800}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tiered estimate: %d %s", resp.StatusCode, body)
	}

	bad, err := http.Post(ts.URL+"/api/v1/estimate", "application/json",
		strings.NewReader(`{"workload":"uniform","tiers":[{"capacityPct":100,"readCycles":-3,"writeCycles":5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tier estimate: status %d, want 400", bad.StatusCode)
	}
}
