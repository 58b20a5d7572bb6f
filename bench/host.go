package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint identifies the host and build a run measured. compare
// refuses to put runs from different hosts side by side; the revision
// fields are informational (two commits are the point of comparing).
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Revision:   "unknown",
		Modified:   "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Revision = s.Value
			case "vcs.modified":
				fp.Modified = s.Value
			}
		}
	}
	return fp
}

// sameHost reports whether two fingerprints describe the same machine and
// toolchain.
func (fp fingerprint) sameHost(o fingerprint) bool {
	return fp.GoVersion == o.GoVersion && fp.OS == o.OS && fp.Arch == o.Arch &&
		fp.GOMAXPROCS == o.GOMAXPROCS && fp.NumCPU == o.NumCPU && fp.CPUModel == o.CPUModel
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
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
