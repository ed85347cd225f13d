// Package buildinfo identifies the running build — module version, VCS
// commit, and Go toolchain — from the information the linker embeds
// (debug.ReadBuildInfo). The daemon exposes it as the
// mvolap_build_info metric and a -version flag, so a running process
// can always be traced back to the build that produced it.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"mvolap/internal/obs"
)

// Info identifies a build.
type Info struct {
	// Version is the main module's version ("(devel)" for a plain
	// source build).
	Version string `json:"version"`
	// Commit is the VCS revision the binary was built from, shortened
	// to 12 characters, with a "+dirty" suffix when the working tree
	// had local modifications; "unknown" outside a VCS checkout.
	Commit string `json:"commit"`
	// Go is the toolchain that compiled the binary.
	Go string `json:"go"`
}

// version and commit are injected by the Makefile's -ldflags -X at
// build time. `go build`/`go run` on a plain package path does not
// stamp VCS information (buildvcs applies to the main module only when
// building from its directory, and `go run` never stamps), so bench
// reports and the build metric were showing "(devel)"/"unknown"; the
// linker injection names the measured commit regardless of how the
// binary was produced. When unset, the debug.ReadBuildInfo fields are
// used as before.
var (
	version string
	commit  string
)

// Get reads the linker-injected identity when present, falling back to
// the toolchain-embedded build information. It never fails: fields
// nobody recorded come back as "unknown" or "(devel)".
func Get() Info {
	info := Info{Version: "(devel)", Commit: "unknown", Go: runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			info.Version = bi.Main.Version
		}
		var revision string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if revision != "" {
			if len(revision) > 12 {
				revision = revision[:12]
			}
			if dirty {
				revision += "+dirty"
			}
			info.Commit = revision
		}
	}
	if version != "" {
		info.Version = version
	}
	if commit != "" {
		info.Commit = commit
	}
	return info
}

// String renders "version (commit, go)" for -version flags.
func (i Info) String() string {
	return fmt.Sprintf("%s (%s, %s)", i.Version, i.Commit, i.Go)
}

// Register publishes the build as a constant mvolap_build_info gauge
// (value 1, identity in the labels — the Prometheus convention for
// build metadata, joinable against every other series of the process).
func Register(r *obs.Registry) Info {
	info := Get()
	r.GaugeVec("mvolap_build_info",
		"Build identity of the running process (constant 1; see labels).",
		"version", "commit", "go").
		With(info.Version, info.Commit, info.Go).Set(1)
	return info
}
