package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"aggview/internal/storage"
)

// hostInfo records the machine a run measured, so a change of host shows
// up in the report as such instead of as a regression.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os_arch"`
	// GitCommit is the checkout's commit when it is a git work tree, else
	// "unknown"; SourceSHA256 identifies the code either way.
	GitCommit    string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
	// PoolShards is the buffer-pool latch shard count of each of the
	// workload's engines, keyed by engine name.
	PoolShards map[string]int `json:"pool_shards"`
	// FsyncP50US is the median time to fsync one 4 KiB block in the
	// filesystem that holds the workload's data directories.
	FsyncP50US float64 `json:"fsync_p50_us"`
}

// workloadPools lists each workload's engines and their buffer-pool sizes
// in pages (the shard count follows from the size).
var workloadPools = map[string]map[string]int{
	"crossover": {"example1": crossEx1Pool, "example2": crossEx2Pool, "figure5": crossFig5Pool},
	"dashboard": {"warehouse": dashPool},
	"ingest":    {"sales": storage.DefaultPoolPages},
}

func hostRecord(workload string) (hostInfo, error) {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		GitCommit:  gitCommit(),
		PoolShards: map[string]int{},
	}
	for name, pages := range workloadPools[workload] {
		h.PoolShards[name] = storage.NewStore(pages).PoolShards()
	}
	sum, err := sourceDigest(".")
	if err != nil {
		return h, err
	}
	h.SourceSHA256 = sum
	return h, nil
}

// cpuModel reads the processor name the kernel reports ("unknown" where
// /proc/cpuinfo does not exist).
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

// gitCommit returns HEAD of the current directory's git work tree, or
// "unknown" when there is none (a plain source checkout).
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	// Stop git at the checkout: a checkout that is not a work tree must
	// not report the commit of some directory above it.
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file under root, skipping
// hidden directories (build output lives in one), so two reports can be
// matched to the code they measured even without version control.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
