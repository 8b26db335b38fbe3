package obs

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo identifies a running binary: Go version plus the VCS
// state stamped by the toolchain (empty outside a VCS build).
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	Time      string `json:"build_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// Build reads the binary's build information once per call.
func Build() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.Revision = s.Value
		case "vcs.time":
			bi.Time = s.Value
		case "vcs.modified":
			bi.Modified = s.Value == "true"
		}
	}
	return bi
}

// registerBuildInfo exports the Prometheus-conventional identity
// gauge kondo_build_info{go_version=...,revision=...} 1. Nil-safe.
func registerBuildInfo(r *Registry) {
	bi := Build()
	r.SetHelp("kondo_build_info", "Build identity of the running binary (value is always 1).")
	g := r.Gauge("kondo_build_info",
		L("go_version", bi.GoVersion),
		L("revision", bi.Revision),
		L("modified", boolStr(bi.Modified)),
	)
	g.Set(1)
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
