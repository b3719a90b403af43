package main

import (
	"bytes"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// Every package under repro/internal must be placed in exactly one layer
// explicitly; a new engine package fails this test until it is.
func TestEveryInternalPackageMapsToOneLayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
	}
	seen := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		seen++
		l, ok := internalLayers[e.Name()]
		if !ok {
			t.Errorf("repro/internal/%s has no layer in internalLayers", e.Name())
			continue
		}
		if !known[l] {
			t.Errorf("repro/internal/%s maps to %q, which is not a CPU layer", e.Name(), l)
		}
		if got := layerOfPackage("repro/internal/" + e.Name()); got != l {
			t.Errorf("layerOfPackage(repro/internal/%s) = %q, want %q", e.Name(), got, l)
		}
	}
	if seen != len(internalLayers) {
		t.Errorf("internalLayers names %d packages, repro/internal has %d", len(internalLayers), seen)
	}
}

func TestPackagesOutsideInternalAreOther(t *testing.T) {
	for _, pkg := range []string{"repro/hurricane", "repro/hurricane/q", "main", "net", "sort", "repro/cmd/hurricane-run"} {
		if got := layerOfPackage(pkg); got != "other" {
			t.Errorf("layerOfPackage(%q) = %q, want other", pkg, got)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/bag.(*Store).Sample.func1":                      "repro/internal/bag",
		"repro/hurricane.ForEach[go.shape.struct { First uint64 }]":     "repro/hurricane",
		"repro/internal/chunk.DecodeBatch":                              "repro/internal/chunk",
		"runtime.mallocgc":                                              "runtime",
		"internal/runtime/syscall.Syscall6":                             "internal/runtime/syscall",
		"main.(*tracedClient).Call":                                     "main",
		"net.(*conn).Read":                                              "net",
		"repro/internal/shuffle.(*Writer[go.shape.uint64]).Write.func2": "repro/internal/shuffle",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"engine leaf", []string{"repro/internal/chunk.DecodeBatch", "repro/internal/core.run"}, "chunk"},
		{"syscall counts for its caller",
			[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "net.(*conn).Write", "bufio.(*Writer).Flush", "repro/internal/transport.(*TCPClient).call"},
			"transport"},
		{"allocation counts for its caller", []string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/sketch.New"}, "sketch"},
		{"GC assist is runtime", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/bag.x"}, "runtime"},
		{"scheduler is runtime", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{"runtime-only stack", []string{"runtime.nanotime", "runtime.goexit"}, "runtime"},
		{"benchmark code is other", []string{"runtime.mapaccess1", "main.(*joinInput).verifyJoin", "repro/internal/core.x"}, "other"},
		{"public API is other", []string{"repro/hurricane.Collect", "main.queryJob"}, "other"},
		{"no go frames", []string{"sort.Slice"}, "other"},
	} {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("%s: layerOfStack = %q, want %q", c.name, got, c.want)
		}
	}
}

var spinSink uint64

// The profile decoder must read what runtime/pprof writes.
func TestCPUByLayerDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := uint64(1)
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
	pprof.StopCPUProfile()
	got, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, l := range cpuLayers {
		ns, ok := got[l]
		if !ok {
			t.Errorf("layer %s missing from the attribution", l)
		}
		total += ns
	}
	if total < int64(100*time.Millisecond) {
		t.Fatalf("decoded %v of CPU from a 300ms spin", time.Duration(total))
	}
	if got["other"] < total/2 {
		t.Errorf("the test's own spin loop should land in other: %v", got)
	}
}
