package probe

import (
	"bytes"
	"encoding/json"
)

// UnmarshalJSONL parses one JSONL line, the decoder a trace round-trips
// through. Unknown fields are rejected so schema drift is caught, not
// silently dropped.
func UnmarshalJSONL(line []byte) (Event, error) {
	var ev Event
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return Event{}, err
	}
	return ev, nil
}
