package packet

import "testing"

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		THello:     "HELLO",
		TJoinQuery: "JOIN_QUERY",
		TJoinReply: "JOIN_REPLY",
		TData:      "DATA",
		Type(99):   "Type(99)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestNumTypes(t *testing.T) {
	if NumTypes != 5 {
		t.Errorf("NumTypes = %d, want 5", NumTypes)
	}
}

func TestNewHelloCopiesGroups(t *testing.T) {
	groups := []GroupID{1, 2}
	p := NewHello(3, groups)
	groups[0] = 99
	if p.Hello.Groups[0] != 1 {
		t.Error("NewHello must copy the groups slice")
	}
	if p.From != 3 || p.Type != THello {
		t.Errorf("header wrong: %+v", p)
	}
	if p.Size != HelloSize+8 {
		t.Errorf("Size = %d", p.Size)
	}
}

func TestJoinQueryKey(t *testing.T) {
	q := JoinQuery{SourceID: 1, GroupID: 2, SequenceNo: 3, HopCount: 4}
	k := q.Key()
	if k != (FloodKey{Source: 1, Group: 2, Seq: 3}) {
		t.Errorf("Key = %+v", k)
	}
	// HopCount must not influence identity.
	q2 := q
	q2.HopCount = 9
	if q2.Key() != k {
		t.Error("HopCount leaked into FloodKey")
	}
}

func TestNewJoinReplySetsNodeID(t *testing.T) {
	p := NewFactory().NewJoinReply(7, JoinReply{NodeID: 999, NexthopID: 2, ReceiverID: 5, SourceID: 0, SequenceNo: 1})
	if p.JoinReply.NodeID != 7 {
		t.Errorf("NodeID = %d, want sender 7", p.JoinReply.NodeID)
	}
	if p.From != 7 {
		t.Errorf("From = %d", p.From)
	}
}

func TestNewJoinQueryIsolation(t *testing.T) {
	q := JoinQuery{SourceID: 1, SequenceNo: 2}
	p := NewFactory().NewJoinQuery(0, q)
	p.JoinQuery.HopCount = 5
	if q.HopCount != 0 {
		t.Error("NewJoinQuery must copy the payload")
	}
}

func TestDataKeyAndSize(t *testing.T) {
	p := NewFactory().NewData(4, Data{SourceID: 0, GroupID: 1, SequenceNo: 9, PayloadLen: 64})
	if p.Size != DataHeader+64 {
		t.Errorf("Size = %d", p.Size)
	}
	if p.Data.Key() != (FloodKey{Source: 0, Group: 1, Seq: 9}) {
		t.Errorf("Key = %+v", p.Data.Key())
	}
}
