package qpc

import (
	"math"
	"strings"
	"testing"

	"mocha/internal/core"
)

// TestHashFractionDeterministic: routing is a pure function of the
// query ID, so the same query can never be re-routed mid-flight.
func TestHashFractionDeterministic(t *testing.T) {
	for _, qid := range []string{"q00000001-0001", "q00000001-0002", "x", ""} {
		if hashFraction(qid) != hashFraction(qid) {
			t.Fatalf("hashFraction(%q) unstable", qid)
		}
	}
}

// TestHashFractionSpread: over many IDs the routed share approximates
// the requested fraction — the canary really sees ~25% at 0.25.
func TestHashFractionSpread(t *testing.T) {
	const n = 20000
	counts := map[float64]int{0.1: 0, 0.25: 0, 0.5: 0}
	for i := 0; i < n; i++ {
		f := hashFraction(strings.Repeat("q", 1+i%7) + string(rune('a'+i%26)) + itoa(i))
		if f < 0 || f >= 1 {
			t.Fatalf("hashFraction out of [0,1): %v", f)
		}
		for frac := range counts {
			if f < frac {
				counts[frac]++
			}
		}
	}
	for frac, got := range counts {
		share := float64(got) / n
		if math.Abs(share-frac) > 0.03 {
			t.Errorf("fraction %.2f routed %.3f of queries", frac, share)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestPlanUsesClass(t *testing.T) {
	plan := &core.Plan{Fragments: []*core.Fragment{
		{Site: "a"},
		{Site: "b", Code: []core.CodeRef{{Name: "AvgEnergy", Checksum: "abc"}}},
	}}
	if !planUsesClass(plan, "avgenergy") {
		t.Error("shipped class not found")
	}
	if planUsesClass(plan, "clip") {
		t.Error("phantom class found")
	}
	if planUsesClass(&core.Plan{}, "avgenergy") {
		t.Error("empty plan ships code")
	}
}

func TestRolloutAbortedErrorRendering(t *testing.T) {
	e := &RolloutAbortedError{
		Class: "AvgEnergy", Tag: "v2", Digest: "feed",
		Reason:     "result digest divergence",
		SQL:        "SELECT AvgEnergy(image) FROM Rasters",
		WantDigest: "1111", GotDigest: "2222",
	}
	msg := e.Error()
	for _, want := range []string{"AvgEnergy@v2", "result digest divergence", "SELECT", "1111", "2222"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	e2 := &RolloutAbortedError{Class: "C", Tag: "t", Reason: "canary execution failed", CanaryErr: "trap: div by zero"}
	if !strings.Contains(e2.Error(), "div by zero") {
		t.Errorf("error %q missing canary error", e2.Error())
	}
}

func TestRolloutPolicyDefaults(t *testing.T) {
	p := RolloutPolicy{}.withDefaults()
	if p.MinSamples != 5 || p.LatencyFactor != 3.0 || p.PromoteAfter != 16 {
		t.Errorf("defaults = %+v", p)
	}
	// Explicit settings survive; negative PromoteAfter (never promote)
	// is preserved, not defaulted.
	p = RolloutPolicy{MinSamples: 2, LatencyFactor: 10, PromoteAfter: -1, MaxCanaryErrors: 3}.withDefaults()
	if p.MinSamples != 2 || p.LatencyFactor != 10 || p.PromoteAfter != -1 || p.MaxCanaryErrors != 3 {
		t.Errorf("explicit policy rewritten: %+v", p)
	}
}

func TestRolloutStateOracle(t *testing.T) {
	st := &rolloutState{Status: rolloutRunning, oracles: make(map[string]*oracleEntry)}
	st.recordOracleLocked("q1", &runOutcome{digest: "aaa", micros: 100})
	if e := st.oracles["q1"]; e == nil || e.digest != "aaa" || e.unstable {
		t.Fatalf("oracle entry = %+v", st.oracles["q1"])
	}
	// Same digest again: stable, EWMA updates.
	st.recordOracleLocked("q1", &runOutcome{digest: "aaa", micros: 200})
	if e := st.oracles["q1"]; e.unstable || e.runs != 2 {
		t.Fatalf("oracle entry after repeat = %+v", e)
	}
	// Conflicting digest: the SQL's output is nondeterministic; the
	// entry is poisoned so it can never condemn a canary.
	st.recordOracleLocked("q1", &runOutcome{digest: "bbb", micros: 100})
	if e := st.oracles["q1"]; !e.unstable {
		t.Fatal("conflicting digests did not mark the oracle unstable")
	}
	// The cap bounds memory under hostile query diversity.
	for i := 0; i < 2*oracleCap; i++ {
		st.recordOracleLocked("sql-"+itoa(i), &runOutcome{digest: "x", micros: 1})
	}
	if len(st.oracles) > oracleCap {
		t.Errorf("oracle map grew to %d (cap %d)", len(st.oracles), oracleCap)
	}
}
