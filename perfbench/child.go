package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"p3cmr"
	"p3cmr/internal/dataset"
	"p3cmr/internal/mr"
	"p3cmr/internal/obs"
	"p3cmr/internal/outlier"
)

// numSplits is the split count core.Run uses when Params.NumSplits is 0.
const numSplits = 16

// minE4SC is the quality below which a clustering counts as wrong output.
// Every workload scores at least 0.76 at the commit that added the
// benchmark; a floor far below that catches a broken pipeline without
// gating on small quality changes, which the e4sc metric's bound covers.
const minE4SC = 0.6

// childReport is what one clustering process prints on its standard output.
type childReport struct {
	Err          string  `json:"err,omitempty"`
	SetupS       float64 `json:"setup_s"`
	RunS         float64 `json:"run_s"`
	CPUS         float64 `json:"cpu_s"`
	AllocMB      float64 `json:"alloc_mb"`
	GCCycles     int     `json:"gc_cycles"`
	E4SC         float64 `json:"e4sc"`
	Digest       string  `json:"digest"`
	Jobs         int     `json:"jobs"`
	Candidates   int     `json:"candidates"`
	Cores        int     `json:"cores"`
	Truncated    int     `json:"levels_truncated"`
	EMIterations int     `json:"em_iterations"`
	Outliers     int     `json:"outliers"`
	// Layer holds the traced run's per-layer values and the probe results;
	// it is empty for an untraced clustering.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// childArgs selects what one clustering process does.
type childArgs struct {
	workload    workload
	dataPath    string
	truthPath   string
	parallelism int
	traced      bool
}

// runChild performs one clustering as a user pays for it: read the input
// file, split it, build the engine, run p3cmr.Run. The output is checked
// and digested afterwards; a traced clustering also runs the layer probes,
// outside the timed call.
func runChild(a childArgs) childReport {
	rep, err := cluster(a)
	if err != nil {
		rep.Err = err.Error()
	}
	return rep
}

func cluster(a childArgs) (childReport, error) {
	var rep childReport
	start := obs.Now()
	data, err := readData(a.dataPath)
	if err != nil {
		return rep, err
	}
	splits := data.Splits(numSplits)
	cfg := mr.Config{Parallelism: a.parallelism}
	var tr *stampTracer
	if a.traced {
		tr = newStampTracer()
		cfg.Tracer = tr
	}
	engine := mr.NewEngine(cfg)
	rep.SetupS = obs.Since(start).Seconds()

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := obs.Now()
	res, err := p3cmr.Run(data, p3cmr.Config{Algorithm: a.workload.algo, Engine: engine})
	rep.RunS = obs.Since(t0).Seconds()
	rep.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return rep, fmt.Errorf("clustering: %w", err)
	}
	rep.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	rep.GCCycles = int(ms1.NumGC - ms0.NumGC)

	if err := checkResult(res, data.N()); err != nil {
		return rep, err
	}
	rep.Digest = digest(res)
	truth, err := readTruth(a.truthPath)
	if err != nil {
		return rep, err
	}
	rep.E4SC = p3cmr.E4SCAgainstTruth(res, data, truth)
	if rep.E4SC < minE4SC {
		return rep, fmt.Errorf("E4SC %.4f is below the floor %.2f", rep.E4SC, minE4SC)
	}
	st := res.Core.Stats
	rep.Jobs, rep.Candidates, rep.Cores = st.Jobs, st.CandidatesProven, st.Cores
	rep.Truncated, rep.EMIterations = st.LevelsTruncated, st.EMIterations
	for _, l := range res.Labels {
		if l == outlier.OutlierLabel {
			rep.Outliers++
		}
	}
	if !a.traced {
		return rep, nil
	}
	rep.Layer, err = traceLayers(tr, a.parallelism)
	if err != nil {
		return rep, err
	}
	if err := runProbes(rep.Layer, a, data, splits, res); err != nil {
		return rep, err
	}
	return rep, nil
}

func readData(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadBinary(f)
}

func readTruth(path string) (*dataset.GroundTruth, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadGroundTruth(f)
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// checkResult rejects structurally impossible output: labels outside the
// cluster range, or tightened intervals outside the unit cube.
func checkResult(res *p3cmr.Result, n int) error {
	if res.Core == nil {
		return fmt.Errorf("result has no pipeline output")
	}
	if len(res.Labels) != n {
		return fmt.Errorf("%d labels for %d points", len(res.Labels), n)
	}
	k := len(res.Signatures)
	if len(res.Clusters) != k {
		return fmt.Errorf("%d clusters but %d signatures", len(res.Clusters), k)
	}
	for i, l := range res.Labels {
		if l != outlier.OutlierLabel && (l < 0 || l >= k) {
			return fmt.Errorf("point %d has label %d outside [0,%d)", i, l, k)
		}
	}
	for c, s := range res.Signatures {
		for _, iv := range s.Intervals {
			if !(0 <= iv.Lo && iv.Lo <= iv.Hi && iv.Hi <= 1) || iv.Attr < 0 {
				return fmt.Errorf("cluster %d has interval %v outside the unit cube", c, iv)
			}
		}
	}
	return nil
}

// digest hashes the labels and the tightened signatures, the output every
// run of one input must reproduce bit for bit.
func digest(res *p3cmr.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(res.Labels)))
	for _, l := range res.Labels {
		put(uint64(int64(l)))
	}
	put(uint64(len(res.Signatures)))
	for _, s := range res.Signatures {
		put(uint64(len(s.Intervals)))
		for _, iv := range s.Intervals {
			put(uint64(iv.Attr))
			put(math.Float64bits(iv.Lo))
			put(math.Float64bits(iv.Hi))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
