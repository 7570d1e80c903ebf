package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp prints the facts a result depends on, so results from different
// machines, toolchains and revisions are never compared by accident.
func stamp(r *report, seed int64, seconds, trace int) {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	facts := map[string]any{
		"workload":   r.workload,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"git_rev":    rev,
		"source_sha": sourceDigest(),
	}
	if p, ok := serveWorkloads[r.workload]; ok {
		facts["serve"], facts["model"] = p, modelConfig
	} else {
		facts["train"] = trainParams
	}
	raw, _ := json.Marshal(facts)
	r.note("stamp: %s", raw)
}

// sourceDigest hashes every Go source, assembly and module file under the
// working directory (the checkout root, where run.sh starts the program),
// which identifies the revision even outside a git checkout.
func sourceDigest() string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
