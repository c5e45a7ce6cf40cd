package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"memstream/internal/units"
)

// requestDigest hashes a request sequence bit for bit: each request's
// arrival and size as raw float64 bits, then its write flag.
func requestDigest(reqs []BestEffortRequest) string {
	h := sha256.New()
	var buf [17]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(r.Arrival.Seconds()))
		binary.LittleEndian.PutUint64(buf[8:16], math.Float64bits(r.Size.Bits()))
		buf[16] = 0
		if r.Write {
			buf[16] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// arrivalGolden pins the request sequences the materialised generator
// produced before requests were drawn on demand. The digests are data
// recorded from that generator, not recomputed by the code under test, so
// any change to the draw order, the draw expressions or the horizon rule
// shows up here.
var arrivalGolden = []struct {
	name    string
	proc    BestEffortProcess
	horizon units.Duration
	count   int
	digest  string
}{
	{"seed1", NewBestEffortProcess(0.05, 50*units.Mbps, 1), units.Hour, 67790, "dbf2ab09ea67dd749140c729c8a776296aa271056011005b1677d2a0847ca945"},
	{"seed2", NewBestEffortProcess(0.05, 50*units.Mbps, 2), units.Hour, 67479, "1e7e0cfedd7ddf3af0e69562cb016cfa0161c675585dcf72b1f0eba501df67a6"},
	{"seed3", NewBestEffortProcess(0.05, 50*units.Mbps, 3), units.Hour, 67965, "2239455ba9761ee40af697db58b719b01143e3b2975fb0ec345fe74cce0600c1"},
	{"reads-only", BestEffortProcess{TargetFraction: 0.05, MeanSize: 4 * units.KiB, WriteFraction: 0, ServiceRate: 50 * units.Mbps, PositioningTime: 2 * units.Millisecond, Seed: 4}, units.Hour, 68108, "2723472d33240aee95e88ebf748bf46749d9b1cb071734457c71263805bf1e11"},
	{"writes-only", BestEffortProcess{TargetFraction: 0.05, MeanSize: 4 * units.KiB, WriteFraction: 1, ServiceRate: 50 * units.Mbps, PositioningTime: 2 * units.Millisecond, Seed: 5}, units.Hour, 67332, "86867d6092d72137e98c4790bed42faa37d38e542529a8a2f3250f6c7b8cf599"},
	{"heavy", NewBestEffortProcess(0.5, 320*units.Mbps, 6), units.Hour, 857255, "caa7e548735604511f86e1d33c4e783b029360b83a3b286692f6579166d78547"},
	{"before-first-arrival", NewBestEffortProcess(0.05, 50*units.Mbps, 1), units.Millisecond, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
}

func TestGenerateMatchesRecordedDigests(t *testing.T) {
	for _, tc := range arrivalGolden {
		reqs, err := tc.proc.Generate(tc.horizon)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(reqs) != tc.count || requestDigest(reqs) != tc.digest {
			t.Errorf("%s: Generate gave %d requests with digest %s, recorded %d with %s",
				tc.name, len(reqs), requestDigest(reqs), tc.count, tc.digest)
		}
	}
}

// drain pops the cursor dry and returns what it yielded.
func drain(a *BestEffortArrivals) []BestEffortRequest {
	var out []BestEffortRequest
	for r, ok := a.Peek(); ok; r, ok = a.Peek() {
		out = append(out, r)
		a.Pop()
	}
	return out
}

func TestArrivalsMatchRecordedDigests(t *testing.T) {
	var a BestEffortArrivals
	for _, tc := range arrivalGolden {
		// One cursor serves every case, so each Reset must also discard the
		// previous case's state.
		if err := a.Reset(tc.proc, tc.horizon); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if reqs := drain(&a); len(reqs) != tc.count || requestDigest(reqs) != tc.digest {
			t.Errorf("%s: cursor gave %d requests with digest %s, recorded %d with %s",
				tc.name, len(reqs), requestDigest(reqs), tc.count, tc.digest)
		}
	}
}

func TestArrivalsReplayAfterReset(t *testing.T) {
	proc := NewBestEffortProcess(0.05, 50*units.Mbps, 1)
	var a BestEffortArrivals
	if err := a.Reset(NewBestEffortProcess(0.2, 50*units.Mbps, 9), units.Hour); err != nil {
		t.Fatal(err)
	}
	// Leave the cursor mid-sequence under another process before reusing it.
	for i := 0; i < 100; i++ {
		a.Pop()
	}
	if err := a.Reset(proc, units.Hour); err != nil {
		t.Fatal(err)
	}
	want := arrivalGolden[0]
	if reqs := drain(&a); len(reqs) != want.count || requestDigest(reqs) != want.digest {
		t.Errorf("reused cursor gave %d requests with digest %s, recorded %d with %s",
			len(reqs), requestDigest(reqs), want.count, want.digest)
	}
	// Rewinding and draining a cursor allocates nothing.
	allocs := testing.AllocsPerRun(3, func() {
		if err := a.Reset(proc, units.Minute); err != nil {
			t.Fatal(err)
		}
		for _, ok := a.Peek(); ok; _, ok = a.Peek() {
			a.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("Reset and drain allocate %.1f times, want 0", allocs)
	}
}

func TestArrivalsEmptyCases(t *testing.T) {
	var zero BestEffortArrivals
	if _, ok := zero.Peek(); ok {
		t.Error("zero-value cursor has a pending request")
	}
	zero.Pop() // must be a no-op on an empty cursor
	if _, ok := zero.Peek(); ok {
		t.Error("Pop on an empty cursor produced a request")
	}

	active := NewBestEffortProcess(0.05, 50*units.Mbps, 1)
	cases := []struct {
		name    string
		proc    BestEffortProcess
		horizon units.Duration
	}{
		{"zero fraction", BestEffortProcess{}, units.Hour},
		{"zero horizon", active, 0},
		{"negative horizon", active, -units.Second},
	}
	for _, tc := range cases {
		var a BestEffortArrivals
		// Start from a non-empty cursor so a stale request would show.
		if err := a.Reset(active, units.Hour); err != nil {
			t.Fatal(err)
		}
		if err := a.Reset(tc.proc, tc.horizon); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if r, ok := a.Peek(); ok {
			t.Errorf("%s: cursor yields %+v, want none", tc.name, r)
		}
	}

	var a BestEffortArrivals
	if err := a.Reset(active, units.Hour); err != nil {
		t.Fatal(err)
	}
	invalid := active
	invalid.WriteFraction = 2
	if err := a.Reset(invalid, units.Hour); err == nil {
		t.Error("Reset accepted an invalid process")
	}
	if _, ok := a.Peek(); ok {
		t.Error("a failed Reset left a request pending")
	}
}
