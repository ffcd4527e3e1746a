package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"bpomdp/internal/bounds"
)

// LoadBounds replaces p.Set with the bound set saved at path (see
// SaveBounds). A missing file is not an error: LoadBounds reports false and
// leaves p.Set as it was. A file that does not decode, or whose set is over a
// different number of states than p.Model, is refused without touching
// p.Set.
func (p *Prepared) LoadBounds(path string) (bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	set := new(bounds.Set)
	if err := json.Unmarshal(data, set); err != nil {
		return false, fmt.Errorf("load bounds %s: %w", path, err)
	}
	if set.NumStates() != p.Model.NumStates() {
		return false, fmt.Errorf("bounds %s are over %d states, model has %d", path, set.NumStates(), p.Model.NumStates())
	}
	p.Set = set
	return true, nil
}

// SaveBounds writes p.Set to path as JSON, atomically: a kill mid-save
// leaves the previous file intact, never a truncated one.
func (p *Prepared) SaveBounds(path string) error {
	return WriteJSONFile(path, p.Set)
}

// WriteJSONFile writes v as JSON to path through a temp file in the same
// directory, which is fsynced and then renamed over path, so readers see
// either the old content or the new, never a partial write.
func WriteJSONFile(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}
