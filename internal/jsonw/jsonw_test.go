package jsonw

import (
	"encoding/json"
	"math"
	"testing"
)

// TestReaderSubset pins what the reader accepts and what it hands back to
// encoding/json: a failed read is the signal to fall back, so every case
// outside the subset must fail rather than guess.
func TestReaderSubset(t *testing.T) {
	read := func(doc string) (a, b float64, ok bool) {
		r := NewReader([]byte(doc))
		var seen uint32
		r.Open('{')
		for i := 0; r.More(i, '}'); i++ {
			switch string(r.Key()) {
			case "a":
				r.Once(&seen, 1)
				a = r.Float()
			case "b":
				r.Once(&seen, 2)
				b = float64(r.Int())
			default:
				r.Fail()
			}
		}
		return a, b, r.End()
	}
	for _, doc := range []string{
		`{"a":1.5,"b":2}`, ` {"b":2 , "a":1.5}` + "\n\t\r ", `{}`, `{"a":-0}`, `{"a":1e-400}`,
	} {
		if _, _, ok := read(doc); !ok {
			t.Errorf("refused %q", doc)
		}
	}
	for _, doc := range []string{
		`{"a":1,"a":2}`, `{"A":1}`, `{"c":1}`, `{"a":1e400}`, `{"a":01}`, `{"b":1.0}`,
		`{"b":1e2}`, `{"b":99999999999999999999}`, `{"a":1,}`, `{,"a":1}`, `{"a":1 "b":2}`,
		`{"a":null}`, `{"a":"1"}`, `{"a":.5}`, `{"a":1.}`, `{"a":1e}`, `{"a":-}`, `{"a":1}x`,
		"\ufeff{}", `{"\u0061":1}`, `{"a":1`, ``, `[]`,
	} {
		if _, _, ok := read(doc); ok {
			t.Errorf("accepted %q", doc)
		}
	}
	if a, _, _ := read(`{"a":-0}`); !math.Signbit(a) {
		t.Error("-0 lost its sign")
	}
}

// TestAppendMatchesEncodingJSON spot-checks the float and string rules
// against encoding/json; the service's FuzzEncodeResponse covers them
// wholesale.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324,
		123456.789, -12, 999999999999999, 1e15, 1.7976931348623157e308, 0.1, 1e-9} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendFloat(%g) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%g) did not fail", f)
		}
	}
	for _, s := range []string{"", "heft", "a<b>&c", " ", "\xff", `q"b\s`, "\x00\x7f", "é"} {
		want, _ := json.Marshal(s)
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}
