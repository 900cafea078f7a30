package load

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseYAMLMappingAndNesting(t *testing.T) {
	doc := `
# a comment
version: "1"
seed: 42
nested:
  a: 1
  b: two words  # trailing comment
  url: http://example.com:9000
`
	node, err := parseYAML([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"version": "1",
		"seed":    "42",
		"nested": map[string]any{
			"a":   "1",
			"b":   "two words",
			"url": "http://example.com:9000",
		},
	}
	if !reflect.DeepEqual(node, want) {
		t.Fatalf("got %#v\nwant %#v", node, want)
	}
}

func TestParseYAMLSequences(t *testing.T) {
	doc := `
scalars:
  - one
  - two
items:
  - id: a
    x: 1
  - id: b
    x: 2
unindented:
- id: c
`
	node, err := parseYAML([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	m := node.(map[string]any)
	if got := m["scalars"].([]any); !reflect.DeepEqual(got, []any{"one", "two"}) {
		t.Fatalf("scalars = %#v", got)
	}
	items := m["items"].([]any)
	if len(items) != 2 {
		t.Fatalf("items = %#v", items)
	}
	if got := items[1].(map[string]any)["x"]; got != "2" {
		t.Fatalf("items[1].x = %v", got)
	}
	un := m["unindented"].([]any)
	if len(un) != 1 || un[0].(map[string]any)["id"] != "c" {
		t.Fatalf("unindented = %#v", un)
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []struct {
		name, doc, wantSub string
	}{
		{"tab indent", "a:\n\tb: 1", "tab in indentation"},
		{"duplicate key", "a: 1\na: 2", "duplicate key"},
		{"empty", "\n# only a comment\n", "empty document"},
		{"bad entry", "a: 1\nnot a mapping line", "expected `key: value`"},
		{"stray indent", "a: 1\n   b: 2", "unexpected indent"},
		{"inline nested sequence", "- - :", "line 1: expected a mapping entry"},
		{"inline nested sequence after a line", "a:\n- - b: 1", "line 2: expected a mapping entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseYAML([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestParseYAMLQuotesAndComments(t *testing.T) {
	doc := `
a: "quoted # not a comment"
b: 'single'
c: plain # stripped
`
	node, err := parseYAML([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	m := node.(map[string]any)
	if m["a"] != "quoted # not a comment" || m["b"] != "single" || m["c"] != "plain" {
		t.Fatalf("got %#v", m)
	}
}
