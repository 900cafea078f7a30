package load

import (
	"fmt"
	"strings"
)

// This file is a zero-dependency parser for the YAML subset workload
// specs are written in, matching the repo's no-external-deps rule. The
// subset is block-style only:
//
//   - mappings:  `key: value` and `key:` introducing a deeper block
//   - sequences: `- item` scalars and `- key: value` inline map items
//   - scalars:   bare words/numbers, "double" and 'single' quoted
//   - comments:  `#` to end of line (outside quotes)
//
// Flow style ({a: b}, [x, y]), anchors, multi-line strings and tabs are
// deliberately out of scope; the parser reports them as errors with
// line numbers instead of guessing. Parsed documents are generic
// map[string]any / []any / string trees that the spec decoder walks.

type yamlLine struct {
	num    int // 1-based source line
	indent int
	text   string // trimmed, comment-stripped
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// parseYAML parses data into a generic node tree.
func parseYAML(data []byte) (any, error) {
	lines, err := splitYAMLLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	p := &yamlParser{lines: lines}
	node, err := p.parseNode(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("yaml: line %d: unexpected content after document (indent %d outside any block)",
			p.lines[p.pos].num, p.lines[p.pos].indent)
	}
	return node, nil
}

// splitYAMLLines strips comments and blanks and computes indentation.
func splitYAMLLines(data []byte) ([]yamlLine, error) {
	var out []yamlLine
	for i, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSuffix(raw, "\r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, fmt.Errorf("yaml: line %d: tab in indentation (use spaces)", i+1)
		}
		text := stripYAMLComment(line[indent:])
		text = strings.TrimSpace(text)
		if text == "" || text == "---" {
			continue
		}
		out = append(out, yamlLine{num: i + 1, indent: indent, text: text})
	}
	return out, nil
}

// stripYAMLComment removes a trailing `# ...` comment, respecting
// single and double quotes.
func stripYAMLComment(s string) string {
	var inSingle, inDouble bool
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if inSingle || inDouble {
				continue
			}
			// A comment starts the line or follows whitespace.
			if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
				return s[:i]
			}
		}
	}
	return s
}

// parseNode parses either a mapping or a sequence block at indent.
func (p *yamlParser) parseNode(indent int) (any, error) {
	ln := p.lines[p.pos]
	if isSeqItem(ln.text) {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

func isSeqItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// parseMap parses consecutive `key: ...` lines at exactly indent.
func (p *yamlParser) parseMap(indent int) (map[string]any, error) {
	first := p.lines[p.pos].num
	m := map[string]any{}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("yaml: line %d: unexpected indent %d (mapping block is at %d)", ln.num, ln.indent, indent)
		}
		if isSeqItem(ln.text) {
			break
		}
		key, rest, err := splitYAMLKey(ln.text, ln.num)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("yaml: line %d: duplicate key %q", ln.num, key)
		}
		p.pos++
		if rest != "" {
			m[key] = unquoteYAML(rest)
			continue
		}
		// `key:` introduces a nested block if the next line is deeper —
		// or a sequence at the same indent, the common unindented-list
		// style (`clients:` followed by `- id: x` at the same column).
		if p.pos < len(p.lines) && (p.lines[p.pos].indent > indent ||
			(p.lines[p.pos].indent == indent && isSeqItem(p.lines[p.pos].text))) {
			v, err := p.parseNode(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			m[key] = v
		} else {
			m[key] = nil
		}
	}
	if len(m) == 0 {
		// Nothing consumed: the block's first line is a sequence item
		// where a `key: value` entry belongs (`- - key: v` on one line).
		return nil, fmt.Errorf("yaml: line %d: expected a mapping entry", first)
	}
	return m, nil
}

// parseSeq parses consecutive `- ...` lines at exactly indent.
func (p *yamlParser) parseSeq(indent int) ([]any, error) {
	var out []any
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent != indent || !isSeqItem(ln.text) {
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(ln.text, "-"))
		switch {
		case rest == "":
			// `-` alone: the item is the deeper block that follows.
			p.pos++
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				v, err := p.parseNode(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			} else {
				out = append(out, nil)
			}
		case looksLikeMapping(rest):
			// `- key: value`: rewrite the line as the first entry of a
			// mapping whose indent is the key's column, then let
			// parseMap consume it plus the aligned lines below.
			inner := ln.indent + (len(ln.text) - len(rest))
			p.lines[p.pos] = yamlLine{num: ln.num, indent: inner, text: rest}
			v, err := p.parseMap(inner)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		default:
			p.pos++
			out = append(out, unquoteYAML(rest))
		}
	}
	return out, nil
}

// looksLikeMapping reports whether text starts a `key: value` entry
// (a colon at the end or followed by a space — "http://x" is a scalar).
func looksLikeMapping(text string) bool {
	i := strings.IndexByte(text, ':')
	if i <= 0 {
		return false
	}
	return i == len(text)-1 || text[i+1] == ' '
}

// splitYAMLKey splits `key: value` into key and the raw value text.
func splitYAMLKey(text string, num int) (key, rest string, err error) {
	if !looksLikeMapping(text) {
		return "", "", fmt.Errorf("yaml: line %d: expected `key: value`, got %q", num, text)
	}
	i := strings.IndexByte(text, ':')
	key = strings.TrimSpace(text[:i])
	rest = strings.TrimSpace(text[i+1:])
	if key == "" {
		return "", "", fmt.Errorf("yaml: line %d: empty key", num)
	}
	return unquoteYAML(key), rest, nil
}

// unquoteYAML strips one level of matching quotes; everything else is
// returned verbatim (scalars stay strings until the spec decoder types
// them).
func unquoteYAML(s string) string {
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			return s[1 : len(s)-1]
		}
	}
	return s
}
