package main

import (
	"fmt"
	"math/rand"

	"repro/hurricane"
	"repro/internal/apps"
)

// The benchmark generates every input from the run's seed and computes
// the ground truth from those inputs itself; the engine only ever sees
// the generated records. Keys follow Zipf(zipfS): P(k) ∝ (k+1)^-zipfS.
const zipfS = 1.3

type (
	tuple = hurricane.Pair[uint64, uint64]
	match = hurricane.Pair[uint64, hurricane.Pair[uint64, uint64]]
)

func zipfKeys(rng *rand.Rand, n, keys int) []uint64 {
	z := rand.NewZipf(rng, zipfS, 1, uint64(keys-1))
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

// joinInput is one skewed join: R holds every key of [0, keys) once, S
// probes it with Zipf-distributed keys. Every probe tuple matches
// exactly one build tuple.
type joinInput struct {
	r, s      []tuple
	buildPay  map[uint64]uint64 // oracle: R's payload per key
	probeKeys map[uint64]int64  // oracle: matches per key
}

func newJoinInput(seed int64, keys, probes int) *joinInput {
	rng := rand.New(rand.NewSource(seed))
	in := &joinInput{
		r:         make([]tuple, keys),
		s:         make([]tuple, probes),
		buildPay:  make(map[uint64]uint64, keys),
		probeKeys: make(map[uint64]int64),
	}
	for k := range in.r {
		p := rng.Uint64()
		in.r[k] = tuple{First: uint64(k), Second: p}
		in.buildPay[uint64(k)] = p
	}
	for i, k := range zipfKeys(rng, probes, keys) {
		in.s[i] = tuple{First: k, Second: rng.Uint64()}
		in.probeKeys[k]++
	}
	return in
}

// verifyJoin checks the collected matches against the oracle: the match
// count per key, and that every match carries its key's build payload.
func (in *joinInput) verifyJoin(got []match) error {
	if len(got) != len(in.s) {
		return fmt.Errorf("join: %d matches, want %d", len(got), len(in.s))
	}
	perKey := make(map[uint64]int64, len(in.probeKeys))
	for _, m := range got {
		pay, ok := in.buildPay[m.First]
		if !ok || m.Second.First != pay {
			return fmt.Errorf("join: match for key %d carries build payload %d", m.First, m.Second.First)
		}
		perKey[m.First]++
	}
	for k, n := range in.probeKeys {
		if perKey[k] != n {
			return fmt.Errorf("join: key %d has %d matches, want %d", k, perKey[k], n)
		}
	}
	return nil
}

// groupInput is one skewed groupby relation over gbKeys keys, the shape
// the served groupby job generates.
type groupInput struct {
	tuples []tuple
	counts map[uint64]int64
}

const gbKeys = 64

func newGroupInput(seed int64, n int) *groupInput {
	rng := rand.New(rand.NewSource(seed))
	in := &groupInput{tuples: make([]tuple, n), counts: make(map[uint64]int64)}
	for i, k := range zipfKeys(rng, n, gbKeys) {
		in.tuples[i] = tuple{First: k, Second: rng.Uint64()}
		in.counts[k]++
	}
	return in
}

func (in *groupInput) verify(got map[uint64]apps.GroupByResult) error {
	if len(got) != len(in.counts) {
		return fmt.Errorf("groupby: %d keys, want %d", len(got), len(in.counts))
	}
	for k, n := range in.counts {
		if got[k].Count != n {
			return fmt.Errorf("groupby: key %d count %d, want %d", k, got[k].Count, n)
		}
	}
	return nil
}

// clickInput is the open-loop click stream: perWindow clicks per
// event-time window whose region follows Zipf over 64 regions, with the
// hot region drifting by one every two windows (the hurricane-run
// -stream generator's shape). truth[w] is window w's per-region count.
type clickInput struct {
	ips       []uint32
	perWindow int
	truth     [][clickRegions]int64
}

const (
	clickRegions    = 64
	clickRegionBits = 6 // the region is an IP's top bits (workload.Geolocate)
	clickHosts      = 1 << 12
)

func newClickInput(seed int64, windows, perWindow int) *clickInput {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, zipfS, 1, clickRegions-1)
	in := &clickInput{
		ips:       make([]uint32, windows*perWindow),
		perWindow: perWindow,
		truth:     make([][clickRegions]int64, windows),
	}
	drift := 2 * perWindow
	for i := range in.ips {
		region := (z.Uint64() + uint64(i/drift)) % clickRegions
		host := uint32(rng.Intn(clickHosts))
		in.ips[i] = uint32(region)<<(32-clickRegionBits) | host
		in.truth[i/perWindow][region]++
	}
	return in
}

func (in *clickInput) verifyWindow(w int, got map[uint64]apps.ClickStreamResult) error {
	if w < 0 || w >= len(in.truth) {
		return fmt.Errorf("window %d: outside the generated stream", w)
	}
	regions := 0
	for r, n := range in.truth[w] {
		if n == 0 {
			continue
		}
		regions++
		if got[uint64(r)].Count != n {
			return fmt.Errorf("window %d: region %d count %d, want %d", w, r, got[uint64(r)].Count, n)
		}
	}
	if len(got) != regions {
		return fmt.Errorf("window %d: %d regions, want %d", w, len(got), regions)
	}
	return nil
}
