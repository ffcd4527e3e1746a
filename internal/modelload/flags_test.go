package modelload

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpomdp/internal/core"
	"bpomdp/internal/emn"
)

// raSetJSON returns the twoserver model's RA-Bound set at t_op = 10 as a
// bound file, and its number of planes.
func raSetJSON(t *testing.T) ([]byte, int) {
	t.Helper()
	rm, err := Load("twoserver")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(prep.Set)
	if err != nil {
		t.Fatal(err)
	}
	return data, prep.Set.Size()
}

func TestRegisterDefaults(t *testing.T) {
	var f Flags
	f.Register(flag.NewFlagSet("test", flag.ContinueOnError))
	want := Flags{ModelFlags: ModelFlags{Model: "emn", Top: emn.OperatorResponseTime}, Bootstrap: 10, BootstrapDepth: 2, Seed: 1}
	if f != want {
		t.Errorf("defaults %+v, want %+v", f, want)
	}
}

// TestPrepare runs the offline front end over a -bounds file that holds
// the RA-Bound set, one over the wrong number of states, or none, and
// checks which set it starts from and whether it writes -bounds.
func TestPrepare(t *testing.T) {
	ra, raPlanes := raSetJSON(t)
	cases := []struct {
		name    string
		args    []string
		save    bool
		file    []byte // the -bounds file before the run; nil = none
		wantErr string // substring of the error; "" = success
		// wantFile is the -bounds file after the run: "same" as before,
		// "absent", or "written" with the prepared set.
		wantFile   string
		wantPlanes int // planes in the prepared set; 0 = more than the RA-Bound's
	}{
		{name: "existing set is loaded, not bootstrapped or rewritten", args: []string{"-bootstrap", "3"}, save: true,
			file: ra, wantFile: "same", wantPlanes: raPlanes},
		{name: "bootstrap saves to a missing file", args: []string{"-bootstrap", "3"}, save: true,
			wantFile: "written"},
		{name: "missing file without SaveBootstrap is refused", args: []string{"-bootstrap", "3"},
			wantErr: "bounds.json does not exist", wantFile: "absent"},
		{name: "no bootstrap writes nothing", args: []string{"-bootstrap", "0"}, save: true,
			wantFile: "absent", wantPlanes: raPlanes},
		{name: "set over the wrong number of states", save: true,
			file: []byte(`{"states":2,"planes":[[0,0]]}`), wantErr: "over 2 states, model has 4"},
		{name: "unreadable model path", args: []string{"-model", "/no/such/model.json"}, save: true,
			wantErr: "no such file"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "bounds.json")
			if c.file != nil {
				if err := os.WriteFile(path, c.file, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			f := Flags{SaveBootstrap: c.save}
			f.Register(fs)
			args := append([]string{"-model", "twoserver", "-top", "10", "-bootstrap-depth", "1", "-bounds", path}, c.args...)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}

			prep, err := f.Prepare()
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, c.wantErr)
				}
			} else if err != nil {
				t.Fatal(err)
			} else if got := prep.Set.Size(); c.wantPlanes > 0 && got != c.wantPlanes || c.wantPlanes == 0 && got <= raPlanes {
				t.Errorf("prepared set has %d planes, want %d (0 = more than the RA-Bound's %d)", got, c.wantPlanes, raPlanes)
			}
			data, err := os.ReadFile(path)
			switch c.wantFile {
			case "same":
				if err != nil || !bytes.Equal(data, c.file) {
					t.Errorf("-bounds file changed (read error %v)", err)
				}
			case "absent":
				if !errors.Is(err, os.ErrNotExist) {
					t.Errorf("-bounds file written (read error %v)", err)
				}
			case "written":
				want, merr := json.Marshal(prep.Set)
				if merr != nil {
					t.Fatal(merr)
				}
				if err != nil || !bytes.Equal(data, want) {
					t.Errorf("-bounds file does not hold the bootstrapped set (read error %v)", err)
				}
			}
		})
	}
}
