package bounds

import (
	"encoding/json"
	"fmt"

	"bpomdp/internal/linalg"
)

// setJSON is the stable on-disk representation of a hyperplane set, so a
// bound bootstrapped offline (minutes of simulation) can be shipped with a
// deployment and loaded by the online controller at startup.
type setJSON struct {
	// States is the dimension of the belief space.
	States int `json:"states"`
	// Capacity is the optional plane cap (0 = unlimited).
	Capacity int `json:"capacity,omitempty"`
	// Planes are the bound hyperplanes, base plane first.
	Planes [][]float64 `json:"planes"`
}

// MarshalJSON encodes the set (planes and capacity; usage counters are
// transient and not persisted).
func (s *Set) MarshalJSON() ([]byte, error) {
	out := setJSON{
		States:   s.n,
		Capacity: s.maxLen,
		Planes:   make([][]float64, s.Size()),
	}
	for i := range out.Planes {
		out.Planes[i] = s.Plane(i)
	}
	return json.Marshal(out)
}

// upperJSON is the stable on-disk representation of a sawtooth upper bound,
// the artifact cmd/boundsrefine writes next to the refined lower set.
type upperJSON struct {
	// States is the dimension of the belief space.
	States int `json:"states"`
	// Corner is the per-state corner vector U₀.
	Corner []float64 `json:"corner"`
	// Points and Values are the interior sawtooth points.
	Points [][]float64 `json:"points,omitempty"`
	Values []float64   `json:"values,omitempty"`
}

// MarshalJSON encodes the upper bound (corner and interior points).
func (u *UpperBound) MarshalJSON() ([]byte, error) {
	out := upperJSON{
		States: u.n,
		Corner: append([]float64(nil), u.corner...),
		Values: append([]float64(nil), u.vals...),
		Points: make([][]float64, u.NumPoints()),
	}
	for i := range out.Points {
		out.Points[i] = append([]float64(nil), u.pts[i*u.n:(i+1)*u.n]...)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes an upper bound previously encoded with MarshalJSON,
// validating dimensions and finiteness.
func (u *UpperBound) UnmarshalJSON(data []byte) error {
	var in upperJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("bounds: decode upper bound: %w", err)
	}
	if in.States <= 0 {
		return fmt.Errorf("bounds: decode upper bound: non-positive state count %d", in.States)
	}
	if len(in.Corner) != in.States {
		return fmt.Errorf("bounds: decode upper bound: corner length %d, want %d", len(in.Corner), in.States)
	}
	if !linalg.Vector(in.Corner).IsFinite() {
		return fmt.Errorf("bounds: decode upper bound: corner is not finite")
	}
	if len(in.Points) != len(in.Values) {
		return fmt.Errorf("bounds: decode upper bound: %d points but %d values", len(in.Points), len(in.Values))
	}
	if !linalg.Vector(in.Values).IsFinite() {
		return fmt.Errorf("bounds: decode upper bound: point values are not finite")
	}
	dec, err := NewUpperBound(in.Corner)
	if err != nil {
		return err
	}
	for i, pt := range in.Points {
		if len(pt) != in.States {
			return fmt.Errorf("bounds: decode upper bound: point %d has length %d, want %d", i, len(pt), in.States)
		}
		if !linalg.Vector(pt).IsFinite() {
			return fmt.Errorf("bounds: decode upper bound: point %d is not finite", i)
		}
		dec.appendPoint(pt, in.Values[i])
	}
	*u = *dec
	return nil
}

// UnmarshalJSON decodes a set previously encoded with MarshalJSON,
// validating dimensions and finiteness.
func (s *Set) UnmarshalJSON(data []byte) error {
	var in setJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("bounds: decode set: %w", err)
	}
	if in.States <= 0 {
		return fmt.Errorf("bounds: decode set: non-positive state count %d", in.States)
	}
	for i, p := range in.Planes {
		if len(p) != in.States {
			return fmt.Errorf("bounds: decode set: plane %d has length %d, want %d", i, len(p), in.States)
		}
		if !linalg.Vector(p).IsFinite() {
			return fmt.Errorf("bounds: decode set: plane %d is not finite", i)
		}
	}
	np := len(in.Planes)
	cols := make([]float64, np*in.States)
	for i, p := range in.Planes {
		for k, v := range p {
			cols[k*np+i] = v
		}
	}
	s.n = in.States
	s.maxLen = in.Capacity
	s.cols = cols
	s.uses = make([]uint64, np)
	s.gen++
	return nil
}
