package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchfmt"
)

// stamp is a result's provenance: benchfmt's stamp fields (the ones
// BENCH_vm.json carries) plus the processor count.
type stamp struct {
	benchfmt.Doc
	NProc int `json:"nproc"`
}

// stampJSON renders the provenance of this run. commit is "unknown" when
// not given: the benchmark runs from checkouts that are not repositories.
func stampJSON(commit string) string {
	if commit == "" {
		commit = "unknown"
	}
	s := stamp{
		Doc: benchfmt.Doc{
			Goos:      runtime.GOOS,
			Goarch:    runtime.GOARCH,
			Pkg:       "repro/ledgerbench",
			CPU:       cpuModel(),
			Commit:    commit,
			GoVersion: runtime.Version(),
			TimeUTC:   time.Now().UTC().Format(time.RFC3339),
		},
		NProc: runtime.NumCPU(),
	}
	data, _ := json.Marshal(s)
	return string(data)
}

// cpuModel reads the processor model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
