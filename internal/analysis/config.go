package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ConfigFileName is the checked-in rule configuration cocolint reads from
// the module root.
const ConfigFileName = "cocolint.json"

// Config is the declarative rule configuration. Pattern entries are import
// paths ("cocopelia/internal/sim"), subtree globs
// ("cocopelia/cmd/..."), or — where noted — single files addressed as
// importpath/file.go ("cocopelia/internal/parallel/clock.go"), which keeps
// allowlists as narrow as one source file.
type Config struct {
	Determinism struct {
		// Allow lists packages/files where wall-clock and RNG calls are
		// permitted (the render layers' run summaries and the clock shim).
		Allow []string `json:"allow"`
	} `json:"determinism"`

	OutputPurity struct {
		// Stdout lists the packages allowed to write to standard output
		// (the render/output layers). Everything else must use stderr.
		Stdout []string `json:"stdout"`
	} `json:"outputpurity"`

	Goroutines struct {
		// Allow lists packages/files permitted to create goroutines (the
		// concurrency layer). Everywhere else, fan-out must flow through a
		// parallel.Pool so the campaigns stay replayable.
		Allow []string `json:"allow"`
	} `json:"goroutines"`

	Hotpath struct {
		// Roots lists functions to treat as hot roots in addition to the
		// //cocolint:hotpath annotations, by types.Func.FullName — e.g.
		// "(*cocopelia/internal/sim.Engine).Step" or
		// "(*cocopelia/internal/link.Link).Submit".
		Roots []string `json:"roots"`
		// AssumeFree allowlists free-list/pool entry points the fact
		// propagation treats as allocation-free: functions whose
		// allocations are amortized warm-up (grow-once slices, recycled
		// object pools) rather than steady-state cost. The reason is
		// mandatory and should name the amortizing mechanism.
		AssumeFree []AssumeFreeEntry `json:"assumeFree"`
	} `json:"hotpath"`

	Layering struct {
		// Layers is the ordered layer spec, lowest (most foundational)
		// first. A package may import module-internal packages only from
		// its own layer or lower ones. Every module package must be
		// assigned to exactly one layer.
		Layers []Layer `json:"layers"`
	} `json:"layering"`
}

// AssumeFreeEntry is one hotpath allowlist entry: a function symbol (by
// FullName) declared allocation-free, with the justification on record.
type AssumeFreeEntry struct {
	Func   string `json:"func"`
	Reason string `json:"reason"`
}

// Layer is one tier of the import DAG.
type Layer struct {
	Name     string   `json:"name"`
	Packages []string `json:"packages"`
}

// LoadConfig reads cocolint.json from the module root. A missing file
// yields the zero config: determinism and outputpurity apply everywhere
// and layering is skipped.
func LoadConfig(moduleDir string) (*Config, error) {
	cfg, err := LoadConfigFile(filepath.Join(moduleDir, ConfigFileName))
	if os.IsNotExist(err) {
		return &Config{}, nil
	}
	return cfg, err
}

// LoadConfigFile reads a rule configuration from an explicit path. Unlike
// LoadConfig, a missing file is an error — a caller naming a file wants
// that file, not a silent empty config.
func LoadConfigFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err
		}
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("analysis: parsing %s: %w", filepath.Base(path), err)
	}
	return &cfg, nil
}

// matchPattern reports whether a package path matches one pattern (exact
// path or "prefix/..." subtree glob).
func matchPattern(pattern, pkgPath string) bool {
	if sub, ok := strings.CutSuffix(pattern, "/..."); ok {
		return pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/")
	}
	return pkgPath == pattern
}

// allowed reports whether the package, or the specific file inside it, is
// covered by the pattern list. filename is the base name of the source
// file under analysis; file-granular patterns address it as
// importpath/file.go.
func allowed(patterns []string, pkgPath, filename string) bool {
	for _, p := range patterns {
		if strings.HasSuffix(p, ".go") {
			if p == pkgPath+"/"+filename {
				return true
			}
			continue
		}
		if matchPattern(p, pkgPath) {
			return true
		}
	}
	return false
}

// layerOf returns the index and name of the layer a package belongs to.
func (c *Config) layerOf(pkgPath string) (int, string, bool) {
	for i, l := range c.Layering.Layers {
		for _, p := range l.Packages {
			if matchPattern(p, pkgPath) {
				return i, l.Name, true
			}
		}
	}
	return 0, "", false
}
