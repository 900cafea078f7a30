package eval

import (
	"fmt"
	"sort"

	"trafficdiff/internal/flow"
	"trafficdiff/internal/workload"
)

// LabelSpace maps string class labels to dense integer ids at either
// the micro (11-application) or macro (4-service) level.
type LabelSpace struct {
	Names []string
	index map[string]int
	// Macro indicates the space holds macro-service labels.
	Macro bool
}

// MicroSpace builds the label space over the given micro classes.
func MicroSpace(classes []string) *LabelSpace {
	ls := &LabelSpace{Names: append([]string(nil), classes...), index: map[string]int{}}
	for i, c := range ls.Names {
		ls.index[c] = i
	}
	return ls
}

// MacroSpace builds the 4-service macro label space implied by the
// given micro classes.
func MacroSpace(classes []string) *LabelSpace {
	seen := map[string]bool{}
	var names []string
	for _, c := range classes {
		m := workload.MacroLabel(c)
		if m != "" && !seen[m] {
			seen[m] = true
			names = append(names, m)
		}
	}
	sort.Strings(names)
	ls := &LabelSpace{Names: names, index: map[string]int{}, Macro: true}
	for i, n := range names {
		ls.index[n] = i
	}
	return ls
}

// K returns the class count.
func (ls *LabelSpace) K() int { return len(ls.Names) }

// LabelOf resolves a flow's label in this space.
func (ls *LabelSpace) LabelOf(f *flow.Flow) (int, error) { return ls.id(f.Label) }

// id resolves a micro class name in this space.
func (ls *LabelSpace) id(micro string) (int, error) {
	name := micro
	if ls.Macro {
		name = workload.MacroLabel(micro)
	}
	id, ok := ls.index[name]
	if !ok {
		return 0, fmt.Errorf("eval: label %q (from %q) not in space %v", name, micro, ls.Names)
	}
	return id, nil
}

// Labels resolves a batch.
func (ls *LabelSpace) Labels(flows []*flow.Flow) ([]int, error) {
	out := make([]int, len(flows))
	for i, f := range flows {
		id, err := ls.LabelOf(f)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}

// ids resolves a batch of micro class names.
func (ls *LabelSpace) ids(micro []string) ([]int, error) {
	out := make([]int, len(micro))
	for i, name := range micro {
		id, err := ls.id(name)
		if err != nil {
			return nil, err
		}
		out[i] = id
	}
	return out, nil
}
