package server

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzEpisodeStateDecode guards the checkpoint trust boundary: anything that
// decodes must satisfy the episode invariants and survive a re-encode
// round trip unchanged.
func FuzzEpisodeStateDecode(f *testing.F) {
	f.Add([]byte(`{"episodeId":1,"controller":"bounded(depth=1)","steps":1,"belief":[0.5,0.5],"history":[{"action":2,"observation":1}]}`))
	f.Add([]byte(`{"episodeId":9,"steps":0}`))
	f.Add([]byte(`{"episodeId":8,"steps":1,"hist`)) // torn mid-write
	f.Add([]byte(`{"episodeId":3,"steps":2,"history":[]}`))
	f.Add([]byte(`{"episodeId":4,"belief":[-1]}`))
	f.Add([]byte(`{"episodeId":5,"belief":[1e999]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeEpisodeState(data)
		if err != nil {
			return
		}
		if verr := st.validate(); verr != nil {
			t.Fatalf("accepted state fails validation: %v (%+v)", verr, st)
		}
		enc, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		again, err := DecodeEpisodeState(enc)
		if err != nil {
			t.Fatalf("re-encoded state rejected: %v (%s)", err, enc)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("round trip changed state: %+v vs %+v", st, again)
		}
	})
}

// FuzzTombstoneStateDecode guards the tombstone trust boundary: bytes read
// back from a store file or received on POST /v1/fleet/tombstones. Anything
// that decodes must be a valid terminal record, and re-encoding it must
// round-trip to the same tombstone and the same bytes, because the final
// decision it carries is replayed byte-identically.
func FuzzTombstoneStateDecode(f *testing.F) {
	f.Add([]byte(`{"episodeId":1,"clientKey":"k","steps":2,"final":{"action":-1,"actionName":"terminate","terminate":true,"value":3.5},"terminatedAtUnixNano":7}`))
	f.Add([]byte(`{"episodeId":2,"steps":1,"final":{"action":1,"terminate":false,"value":1},"terminatedAtUnixNano":1}`)) // non-terminal final
	f.Add([]byte(`{"episodeId":3,"final":{"action":-1,"terminate":true,"value":NaN}}`))                                  // NaN value
	f.Add([]byte(`{"episodeId":4,"final":{"action":-1,"terminate":true,"value":1e999}}`))
	f.Add([]byte(`{"episodeId":5,"clientKey":"k","steps":2,"final":{"act`)) // torn mid-write
	f.Add([]byte(`{"episodeId":0,"final":{"terminate":true}}`))
	f.Add([]byte(`{"episodeId":6,"steps":-1,"final":{"terminate":true},"terminatedAtUnixNano":-5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := DecodeTombstoneState(data)
		if err != nil {
			return
		}
		if verr := ts.validate(); verr != nil {
			t.Fatalf("accepted tombstone fails validation: %v (%+v)", verr, ts)
		}
		enc, err := json.Marshal(ts)
		if err != nil {
			t.Fatalf("accepted tombstone does not re-encode: %v", err)
		}
		again, err := DecodeTombstoneState(enc)
		if err != nil {
			t.Fatalf("re-encoded tombstone rejected: %v (%s)", err, enc)
		}
		if !reflect.DeepEqual(ts, again) {
			t.Fatalf("round trip changed tombstone: %+v vs %+v", ts, again)
		}
		if enc2, err := json.Marshal(again); err != nil || string(enc2) != string(enc) {
			t.Fatalf("re-encoding is not a fixed point: %s vs %s (err %v)", enc, enc2, err)
		}
	})
}
