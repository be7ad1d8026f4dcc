package main //lint:ignore layering perfbench is its own module (perfbench/go.mod), a consumer outside the program's import DAG

import "time"

// now is the benchmark's one wall-clock read; every duration it reports
// derives from it. The repository's determinism analyzer keeps the
// program wall-clock free, but measuring wall time is this package's job.
func now() time.Time {
	return time.Now() //lint:ignore determinism a benchmark measures wall time
}

// since returns the wall time elapsed since t.
func since(t time.Time) time.Duration { return now().Sub(t) }
