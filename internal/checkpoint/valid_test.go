package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// oracleDepth is the deepest nesting of arrays and objects encoding/json's
// tokenizer walks through in b, one valid JSON value.
func oracleDepth(t *testing.T, b []byte) int {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber() // a number too big for a float64 is still a token
	depth, deepest := 0, 0
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			return deepest
		}
		if err != nil {
			t.Fatalf("tokenizing %q: %v", b, err)
		}
		switch tok {
		case json.Delim('['), json.Delim('{'):
			depth++
			deepest = max(deepest, depth)
		case json.Delim(']'), json.Delim('}'):
			depth--
		}
	}
}

// inLine nests p one level deep, the way a journal line holds its
// payload.
func inLine(p []byte) []byte {
	return append(append([]byte(`{"p":`), p...), '}')
}

// requireValidJSON fails unless validJSON agrees with json.Valid on b
// alone and nested in a line, and, on a valid b, reports the depth
// encoding/json's tokenizer walks through, one more for the line.
func requireValidJSON(t *testing.T, b []byte) {
	t.Helper()
	depth, ok := validJSON(b)
	if want := json.Valid(b); ok != want {
		t.Fatalf("validJSON(%.80q) = %v, json.Valid says %v", b, ok, want)
	}
	line := inLine(b)
	lineDepth, lineOK := validJSON(line)
	if want := json.Valid(line); lineOK != want {
		t.Fatalf("validJSON(%.80q) = %v, json.Valid says %v", line, lineOK, want)
	}
	if !ok {
		return
	}
	if lineOK != (depth < maxDepth) {
		t.Fatalf("%.80q is valid at depth %d, but valid in a line is %v", b, depth, lineOK)
	}
	if want := oracleDepth(t, b); depth != want {
		t.Fatalf("validJSON(%.80q) reports depth %d, the tokenizer %d", b, depth, want)
	}
	if lineOK && lineDepth != depth+1 {
		t.Fatalf("%.80q nests %d deep alone and %d in a line", b, depth, lineDepth)
	}
}

// FuzzValidJSON holds the journal's hand-written validator to
// json.Valid on any input, alone and nested one level deep in a line,
// and its reported depth to the one encoding/json's tokenizer walks
// through. The seeds cover every token kind, whitespace, escapes, and
// the malformed numbers, literals, strings and containers the
// validator must refuse.
func FuzzValidJSON(f *testing.F) {
	for _, s := range []string{
		``, ` `, `{}`, `[]`, `[[]]`, `{"":{}}`, `0`, `-0`, `-0.0e-0`, `1E5`, `1E555`, `12.5e+3`,
		`"x"`, `""`, `true`, `false`, `null`, "\ufeff1",
		" {\"a\" : [1, -2.5e+3, true, false, null, \"x\\u00e9\\n\"]}\t\r\n",
		`"\"\\\/\b\f\n\r\tA\uD800"`, "\"\xff\xfe\"", `{"a":{"b":[{"c":[]}]}}`,
		`01`, `1.`, `.5`, `-`, `1e`, `1e+`, `+1`, `0x1`, `1 2`, `[1,]`, `[,1]`, `{"a":1,}`,
		`{"a"}`, `{"a" 1}`, `{1:2}`, `{,}`, `[}`, `{]`, `[1}`, `{"a":1]`, `[`, `]`, `{`,
		"\"\x01\"", `"\q"`, `"\u12"`, `"\u12G4"`, `"unterminated`, `"\`, `tru`, `nulls`, `nul`,
		`falsey`, `[true false]`, `"a""b"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		requireValidJSON(t, b)
	})
}

// TestValidJSONDepthLimit runs FuzzValidJSON's check at encoding/json's
// nesting limit, with inputs too large to seed a fuzzer with: arrays
// and objects nested one level less than the limit, which fit in a
// line; at the limit, which is valid alone but not in a line; and one
// past it, which is valid nowhere.
func TestValidJSONDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		for name, b := range map[string]string{
			"arrays":  strings.Repeat("[", depth) + strings.Repeat("]", depth),
			"objects": strings.Repeat(`{"a":`, depth-1) + "{}" + strings.Repeat("}", depth-1),
			"mixed":   strings.Repeat(`[{"a":`, depth/2) + strings.Repeat("[", depth%2) + "0" + strings.Repeat("]", depth%2) + strings.Repeat("}]", depth/2),
		} {
			t.Run(name, func(t *testing.T) {
				requireValidJSON(t, []byte(b))
				got, ok := validJSON([]byte(b))
				if ok != (depth <= maxDepth) || ok && got != depth {
					t.Errorf("depth %d: validJSON reports depth %d, ok %v", depth, got, ok)
				}
			})
		}
	}
}
