// Command fpiload is the fpintd load and chaos harness: it drives
// concurrent compile/partition/simulate requests — including malformed,
// trapping, over-budget, and (against a -chaos daemon) panic-inducing
// jobs — and reports latency percentiles, throughput, shed rate, and
// cache hit rate as a deterministic fpint-load/v1 JSON document.
//
// Usage:
//
//	fpiload -addr http://127.0.0.1:8080 [-n 1000] [-c 32] [-seed 1]
//	        [-mix ok=12,malformed=2,trap=2,over-budget=2,panic=2]
//	        [-json out.json]
//
// The request sequence is deterministic for a given seed and mix; only
// the wall-clock fields vary run to run. Exit codes follow the fperr
// contract: 0 on a completed run, 1 on a usage error (a bad flag, or -n
// or -c below one), 2 when every request failed at the transport (the
// daemon is unreachable), 6 when the daemon shed the entire run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fpint/internal/fperr"
	"fpint/internal/service/loadgen"
)

func main() {
	err := fpiloadMain(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "fpiload: %v\n", err)
	}
	os.Exit(fperr.ExitCode(err))
}

func fpiloadMain(args []string) error {
	fs := flag.NewFlagSet("fpiload", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8080", "fpintd base URL")
		n       = fs.Int("n", 1000, "total requests")
		c       = fs.Int("c", 32, "concurrent workers")
		seed    = fs.Int64("seed", 1, "request-sequence seed")
		mixSpec = fs.String("mix", "", "flavor weights, e.g. ok=12,malformed=2,trap=2,over-budget=2,panic=2 (default: built-in chaos mix)")
		jsonOut = fs.String("json", "-", "write the fpint-load/v1 report to the given file (\"-\" for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fperr.Wrap(fperr.ClassUsage, err)
	}
	if fs.NArg() != 0 {
		return fperr.New(fperr.ClassUsage, "unexpected arguments %v", fs.Args())
	}
	if *n < 1 {
		return fperr.New(fperr.ClassUsage, "-n %d: need at least one request", *n)
	}
	if *c < 1 {
		return fperr.New(fperr.ClassUsage, "-c %d: need at least one worker", *c)
	}

	cfg := loadgen.Config{BaseURL: *addr, Requests: *n, Workers: *c, Seed: *seed}
	if *mixSpec != "" {
		mix, err := parseMix(*mixSpec)
		if err != nil {
			return err
		}
		cfg.Mix = mix
	}

	rep, err := loadgen.Run(cfg)
	if err != nil {
		return fperr.Wrap(fperr.ClassInternal, err)
	}
	if err := writeTo(*jsonOut, rep.WriteJSON); err != nil {
		return fperr.Wrap(fperr.ClassInput, err)
	}
	switch {
	case rep.Requests == 0 && rep.TransportErrors > 0:
		return fperr.New(fperr.ClassInput, "no request reached the daemon (%d transport errors)", rep.TransportErrors)
	case rep.Requests > 0 && rep.Shed == rep.Requests:
		return fperr.New(fperr.ClassUnavailable, "the daemon shed the entire run (%d/%d)", rep.Shed, rep.Requests)
	}
	return nil
}

// parseMix parses "flavor=weight,..." into loadgen mix weights.
func parseMix(spec string) (map[string]int, error) {
	known := map[string]bool{
		loadgen.FlavorOK: true, loadgen.FlavorMalformed: true, loadgen.FlavorTrap: true,
		loadgen.FlavorOverBudget: true, loadgen.FlavorPanic: true,
	}
	mix := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || !known[name] {
			return nil, fperr.New(fperr.ClassUsage, "bad mix entry %q (want flavor=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fperr.New(fperr.ClassUsage, "bad mix weight %q", val)
		}
		mix[name] = w
	}
	return mix, nil
}

// writeTo streams enc to path, with "-" meaning stdout.
func writeTo(path string, enc func(w io.Writer) error) error {
	if path == "-" {
		return enc(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
