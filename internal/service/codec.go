package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"oneport/internal/graph"
	"oneport/internal/jsonw"
	"oneport/internal/platform"
)

// This file is the cold path's codec: requests are read in one pass over
// the pooled body, and responses encoded once by append functions that
// write exactly encoding/json's bytes. Request and Response deliberately
// carry no (Un)MarshalJSON methods: SessionResponse embeds Response, so a
// promoted MarshalJSON would silently drop the session fields, and a
// Request.UnmarshalJSON would take over the strict reference decoder and
// escape its DisallowUnknownFields.

// decodeRequest decodes one request body into req: the single-pass reader
// first and, for any body outside its subset, decodeStrict, which is the
// reference and the only source of error texts.
func decodeRequest(body []byte, req *Request) error {
	if readRequest(body, req) {
		return nil
	}
	*req = Request{}
	return decodeStrict(body, req)
}

// decodeStrict is the service's one strict decoder: encoding/json decodes
// the first JSON value of body into dst and refuses unknown fields. The
// error is the 400's text.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

// readRequest is the single-pass reader for a whole request body: exact
// keys in any order, each at most once, nothing but whitespace after the
// object, the graph and platform read by their own ReadJSON. It reports
// whether it accepted the body; on false, req is unspecified.
func readRequest(body []byte, req *Request) bool {
	r := jsonw.NewReader(body)
	var seen uint32
	r.Open('{')
	for i := 0; r.More(i, '}'); i++ {
		switch string(r.Key()) {
		case "graph":
			r.Once(&seen, 1)
			req.Graph = new(graph.Graph)
			req.Graph.ReadJSON(&r)
		case "platform":
			r.Once(&seen, 2)
			req.Platform = new(platform.Platform)
			req.Platform.ReadJSON(&r)
		case "heuristic":
			r.Once(&seen, 4)
			req.Heuristic = string(r.String())
		case "model":
			r.Once(&seen, 8)
			req.Model = string(r.String())
		case "options":
			r.Once(&seen, 16)
			readOptions(&r, &req.Options)
		default:
			r.Fail()
		}
	}
	return r.End()
}

func readOptions(r *jsonw.Reader, o *Options) {
	var seen uint32
	r.Open('{')
	for i := 0; r.More(i, '}'); i++ {
		switch string(r.Key()) {
		case "b":
			r.Once(&seen, 1)
			o.B = r.Int()
		case "scan_depth":
			r.Once(&seen, 2)
			o.ScanDepth = r.Int()
		case "probe_parallelism":
			r.Once(&seen, 4)
			o.ProbeParallelism = r.Int()
		default:
			r.Fail()
		}
	}
}

// appendResponse appends resp as encoding/json encodes it, without the
// trailing newline json.Encoder adds, and returns the offset of the value
// of its "cached" field.
func appendResponse(b []byte, resp *Response) ([]byte, int, error) {
	b = append(b, '{')
	b, at, err := appendResponseFields(b, resp)
	if err != nil {
		return b, 0, err
	}
	return append(b, '}'), at, nil
}

// appendSessionResponse appends resp as encoding/json encodes it: the
// session fields, then the embedded Response's fields.
func appendSessionResponse(b []byte, resp *SessionResponse) ([]byte, error) {
	b = append(b, `{"session_id":`...)
	b = jsonw.AppendString(b, resp.SessionID)
	b = append(b, `,"replayed_tasks":`...)
	b = strconv.AppendInt(b, int64(resp.Replayed), 10)
	b = append(b, `,"deltas":`...)
	b = strconv.AppendInt(b, int64(resp.Deltas), 10)
	b = append(b, ',')
	b, _, err := appendResponseFields(b, &resp.Response)
	if err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendResponseFields appends the members of resp's JSON object, in
// encoding/json's field order and with its omitempty rules.
func appendResponseFields(b []byte, resp *Response) ([]byte, int, error) {
	var err error
	b = append(b, `"key":`...)
	b = jsonw.AppendString(b, resp.Key)
	b = append(b, `,"heuristic":`...)
	b = jsonw.AppendString(b, resp.Heuristic)
	b = append(b, `,"model":`...)
	b = jsonw.AppendString(b, resp.Model)
	b = append(b, `,"tasks":`...)
	b = strconv.AppendInt(b, int64(resp.Tasks), 10)
	b = append(b, `,"makespan":`...)
	if b, err = jsonw.AppendFloat(b, resp.Makespan); err != nil {
		return b, 0, err
	}
	b = append(b, `,"speedup":`...)
	if b, err = jsonw.AppendFloat(b, resp.Speedup); err != nil {
		return b, 0, err
	}
	b = append(b, `,"comms":`...)
	b = strconv.AppendInt(b, int64(resp.Comms), 10)
	b = append(b, `,"cached":`...)
	at := len(b)
	b = strconv.AppendBool(b, resp.Cached)
	b = append(b, `,"elapsed_ns":`...)
	b = strconv.AppendInt(b, resp.ElapsedNs, 10)
	if resp.Schedule != nil {
		b = append(b, `,"schedule":`...)
		if b, err = resp.Schedule.AppendJSON(b); err != nil {
			return b, 0, err
		}
	}
	if resp.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonw.AppendString(b, resp.Error)
	}
	return b, at, nil
}

// encodePool recycles the encode buffers of the cold path.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// encodeEntry encodes a response for the cache once and returns its two
// wire forms, which differ only in the "cached" value: the miss reply
// ("cached":false) and the bytes every later hit writes ("cached":true).
// Both end in json.Encoder's newline. Both are nil when the response
// cannot be encoded; encoding/json refuses it too.
func encodeEntry(resp Response) (miss, hit []byte) {
	bp := encodePool.Get().(*[]byte)
	defer encodePool.Put(bp)
	resp.Cached = false
	b, at, err := appendResponse((*bp)[:0], &resp)
	*bp = b
	if err != nil {
		return nil, nil
	}
	b = append(b, '\n')
	*bp = b
	miss = bytes.Clone(b)
	hit = make([]byte, 0, len(b)-len("false")+len("true"))
	hit = append(hit, b[:at]...)
	hit = append(hit, "true"...)
	hit = append(hit, b[at+len("false"):]...)
	return miss, hit
}
