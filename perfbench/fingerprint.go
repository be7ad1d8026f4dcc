package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"cocopelia/internal/blas"
)

// fingerprint identifies the host and the code a result set came from, so
// a number from another host or another tree is never silently compared
// as a regression.
type fingerprint struct {
	CPU        string            `json:"cpu"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	OSArch     string            `json:"os_arch"`
	Kernels    map[string]string `json:"blas_kernels"`
	// Commit is the VCS revision when the build knows it; SourceSHA256
	// digests the Go sources and module files of the tree, and also
	// identifies checkouts that are not git repositories.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func hostFingerprint() (fingerprint, error) {
	fp := fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Kernels:    map[string]string{},
		Commit:     "unknown",
	}
	for _, pol := range []struct {
		name string
		p    blas.KernelPolicy
	}{{"exact", blas.KernelExact}, {"fma", blas.KernelFMA}} {
		k64, err := blas.SelectedKernel[float64](pol.p)
		if err != nil {
			return fp, err
		}
		k32, err := blas.SelectedKernel[float32](pol.p)
		if err != nil {
			return fp, err
		}
		fp.Kernels[pol.name+"/f64"] = k64
		fp.Kernels[pol.name+"/f32"] = k32
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	sum, err := sourceDigest(".")
	if err != nil {
		return fp, err
	}
	fp.SourceSHA256 = sum
	return fp, nil
}

// cpuModel returns the CPU model name from /proc/cpuinfo, or the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go, .s and go.mod file under the repository
// root (the directory holding go.mod and internal/), in path order,
// skipping build output and hidden directories.
func sourceDigest(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "internal")); err != nil {
		return "", err
	}
	var paths []string
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
		if ext := filepath.Ext(path); ext == ".go" || ext == ".s" || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
