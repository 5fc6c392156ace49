package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// snapshot is the process and host state at one instant; the window's
// figures are differences of two snapshots.
type snapshot struct {
	at         time.Time
	cpu        time.Duration // process user+sys (getrusage)
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, every CPU class the runtime accounts
	steal      uint64  // host steal ticks, all CPUs
	hostTotal  uint64  // host ticks, all CPUs
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeSnapshot() snapshot {
	s := snapshot{at: time.Now(), cpu: processCPU()}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		ms[i].Name = name
	}
	metrics.Read(ms)
	s.allocBytes = ms[0].Value.Uint64()
	s.allocObjs = ms[1].Value.Uint64()
	s.gcCycles = ms[2].Value.Uint64()
	s.gcCPU = ms[3].Value.Float64()
	s.totalCPU = ms[4].Value.Float64()
	s.steal, s.hostTotal = readProcStat()
	return s
}

// heapLiveBytes forces a collection and reads the live heap it left.
// The second collection frees what sync.Pool victim caches kept through
// the first.
func heapLiveBytes() uint64 {
	runtime.GC()
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return ms[0].Value.Uint64()
}

// readProcStat returns the aggregate steal and total ticks from
// /proc/stat (zeros where the file is unavailable).
func readProcStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] != "cpu" {
			continue
		}
		for i, v := range fields[1:] {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				continue
			}
			total += n
			if i == 7 { // user nice system idle iowait irq softirq steal
				steal = n
			}
		}
		return steal, total
	}
	return 0, 0
}

// envRecord is the host state a run writes out, so a noisy run can be
// told apart from a real change.
type envRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	CPUModel   string  `json:"cpuModel"`
	Clients    int     `json:"clients"`
	GCCycles   uint64  `json:"gcCycles"`
	StealTicks uint64  `json:"stealTicks"`
	HostTicks  uint64  `json:"hostTicks"`
	WindowS    float64 `json:"windowS"`
	Requests   int     `json:"requests"`
	Streamed   int     `json:"streamed"`
	// SetupS is the time of each set-up round, in seconds.
	SetupS []float64 `json:"setupS"`
	// HeapBaselineMB is the benchmark's own live heap, which
	// heap_live_mb leaves out.
	HeapBaselineMB float64 `json:"heapBaselineMB"`
	// RefUnits and RefUnitMs are the count and median wall time of the
	// reference units run in the window (calib.go).
	RefUnits  int     `json:"refUnits"`
	RefUnitMs float64 `json:"refUnitMs"`
	// Raw holds the time metrics as measured, before the reference
	// scaling.
	Raw map[string]float64 `json:"raw"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
