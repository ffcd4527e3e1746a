package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// gate is the paired benchmark gate. For each of `pairs` pairs it starts a
// fresh -serve worker of the base binary and of this one, so no one
// process's memory layout favours a side in every pair, and measures each
// entry on the two back to back, alternating which goes first by pair and
// by entry, so load that comes and goes on the host slows both sides of a
// pair alike. It prints the medians and the regressions comparePairs
// finds, writes this binary's median report to out, and returns the
// regressions.
func gate(baseBin string, mintime time.Duration, out string) ([]Regression, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// This binary's own suite names the entries to pair and heads the
	// reports.
	header, s, err := setup()
	if err != nil {
		return nil, err
	}
	var base, cand []*Report
	for i := 0; i < pairs; i++ {
		b, c := *header, *header
		b.Bench, c.Bench = map[string]Entry{}, map[string]Entry{}
		bw, err := startWorker(baseBin, mintime)
		if err != nil {
			return nil, err
		}
		defer bw.close()
		cw, err := startWorker(self, mintime)
		if err != nil {
			return nil, err
		}
		defer cw.close()
		for j, name := range s.names {
			first, second, fr, sr := bw, cw, &b, &c
			if (i+j)%2 == 1 {
				first, second, fr, sr = cw, bw, &c, &b
			}
			if err := first.measure(name, fr); err != nil {
				return nil, err
			}
			if err := second.measure(name, sr); err != nil {
				return nil, err
			}
		}
		bw.close()
		cw.close()
		base, cand = append(base, &b), append(cand, &c)
	}
	med := medianReport(cand)
	if err := writeReport(out, med); err != nil {
		return nil, err
	}
	fmt.Printf("medians of %d alternating pairs against %s (fails at a median paired ns/op ratio over %.2f, slower in %d of %d pairs, or any allocs/op growth):\n",
		pairs, baseBin, 1+threshold, minLosses, pairs)
	printComparison(os.Stdout, medianReport(base), med)
	regressions := comparePairs(base, cand)
	if len(regressions) == 0 {
		fmt.Println("no regressions")
	}
	for _, r := range regressions {
		fmt.Println("  " + r.String())
	}
	return regressions, nil
}

// worker is a bench binary running as a -serve worker.
type worker struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *json.Decoder
}

func startWorker(bin string, mintime time.Duration) (*worker, error) {
	cmd := exec.Command(bin, "-serve", "-mintime", mintime.String())
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Wait for the worker's set-up, so it does not share the CPU with the
	// other side's first measurements.
	w := &worker{cmd: cmd, in: in, out: json.NewDecoder(out)}
	var names []string
	if err := w.out.Decode(&names); err != nil {
		w.close()
		return nil, fmt.Errorf("%s -serve: %w", bin, err)
	}
	return w, nil
}

// measure asks the worker to measure one entry into rep; a worker without
// the entry (a base that predates it) answers null and rep stays without it.
func (w *worker) measure(name string, rep *Report) error {
	var e *Entry
	if _, err := fmt.Fprintln(w.in, name); err != nil {
		return fmt.Errorf("%s: %w", w.cmd.Path, err)
	}
	if err := w.out.Decode(&e); err != nil {
		return fmt.Errorf("%s -serve: %s: %w", w.cmd.Path, name, err)
	}
	if e != nil {
		rep.Bench[name] = *e
	}
	return nil
}

// close ends the worker; closing it again does nothing.
func (w *worker) close() {
	if w.cmd.ProcessState == nil {
		w.in.Close()
		_ = w.cmd.Wait()
	}
}
