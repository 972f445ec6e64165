package machine

import (
	"reflect"
	"testing"

	"repro/internal/jade"
)

// item is an access to a named object, bound for dest.
type item struct {
	dest int
	name string
}

// gatherAll queues one access per item and groups them.
func gatherAll(c *Central, coalesce bool, items ...item) []int32 {
	for i, it := range items {
		c.Gather(jade.Access{Obj: &jade.Object{ID: jade.ObjectID(i), Name: it.name}}, it.dest)
	}
	return c.Group(coalesce)
}

// batches renders messages as destination-tagged name lists, checking
// on the way that Next links them in the returned order.
func batches(t *testing.T, c *Central, msgs []int32) (dests []int, names [][]string) {
	t.Helper()
	for k, i := range msgs {
		m := c.Msg(i)
		want := int32(-1)
		if k+1 < len(msgs) {
			want = msgs[k+1]
		}
		if m.Next != want {
			t.Fatalf("message %d: Next = %d, want %d", k, m.Next, want)
		}
		var ns []string
		for _, a := range m.Batch {
			ns = append(ns, a.Obj.Name)
		}
		dests = append(dests, m.Dest)
		names = append(names, ns)
	}
	return dests, names
}

func TestGroupEmpty(t *testing.T) {
	var c Central
	for _, on := range []bool{true, false} {
		if msgs := c.Group(on); len(msgs) != 0 {
			t.Fatalf("Group(%t) with nothing gathered = %v, want none", on, msgs)
		}
	}
}

func TestGroupOffIsSingletons(t *testing.T) {
	var c Central
	msgs := gatherAll(&c, false, item{3, "a"}, item{1, "b"}, item{3, "c"}, item{2, "d"})
	dests, names := batches(t, &c, msgs)
	if want := []int{3, 1, 3, 2}; !reflect.DeepEqual(dests, want) {
		t.Fatalf("off-path destinations = %v, want %v", dests, want)
	}
	if want := [][]string{{"a"}, {"b"}, {"c"}, {"d"}}; !reflect.DeepEqual(names, want) {
		t.Fatalf("off-path batches = %v, want %v", names, want)
	}
	// Every message owns its batch: growing one must not scribble over
	// another.
	c.Msg(msgs[0]).Batch = append(c.Msg(msgs[0]).Batch, jade.Access{})
	if got := c.Msg(msgs[1]).Batch[0].Obj.Name; got != "b" {
		t.Fatalf("appending to one batch changed another's access to %q", got)
	}
}

func TestGroupOnGroupsByFirstAppearance(t *testing.T) {
	var c Central
	msgs := gatherAll(&c, true,
		item{2, "a"}, item{0, "b"}, item{2, "c"}, item{1, "d"}, item{0, "e"}, item{2, "f"})
	dests, names := batches(t, &c, msgs)
	if want := []int{2, 0, 1}; !reflect.DeepEqual(dests, want) {
		t.Fatalf("on-path destinations = %v, want %v", dests, want)
	}
	if want := [][]string{{"a", "c", "f"}, {"b", "e"}, {"d"}}; !reflect.DeepEqual(names, want) {
		t.Fatalf("on-path batches = %v, want %v", names, want)
	}
}

func TestGroupSingleDestination(t *testing.T) {
	var c Central
	msgs := gatherAll(&c, true, item{4, "x"}, item{4, "y"}, item{4, "z"})
	_, names := batches(t, &c, msgs)
	if want := [][]string{{"x", "y", "z"}}; !reflect.DeepEqual(names, want) {
		t.Fatalf("single-destination batches = %v, want one batch of all items", names)
	}
}

// A recycled record comes back empty, unlinked and addressed anew, and
// keeps its batch's capacity.
func TestMsgRecycled(t *testing.T) {
	var c Central
	msgs := gatherAll(&c, true, item{1, "a"}, item{2, "b"}, item{1, "c"})
	first := msgs[0]
	capacity := cap(c.Msg(first).Batch)
	c.FreeMsg(first)
	i := c.NewMsg(5)
	if i != first {
		t.Fatalf("NewMsg = %d, want the recycled record %d", i, first)
	}
	m := c.Msg(i)
	if m.Dest != 5 || len(m.Batch) != 0 || m.Next != -1 || m.TS != nil {
		t.Fatalf("recycled record = %+v, want an empty message to 5", *m)
	}
	if cap(m.Batch) != capacity {
		t.Fatalf("recycled batch capacity = %d, want %d", cap(m.Batch), capacity)
	}
}
