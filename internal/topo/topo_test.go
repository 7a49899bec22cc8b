package topo

import "testing"

func TestConstructors(t *testing.T) {
	if p := Pair(); p.Hosts != 2 || len(p.Pairs) != 1 {
		t.Fatalf("Pair() = %+v", p)
	}
	r := Ring(2)
	if len(r.Pairs) != 1 {
		t.Fatalf("Ring(2) must not duplicate the 0-1 pair: %+v", r.Pairs)
	}
	r = Ring(5)
	if r.Hosts != 5 || len(r.Pairs) != 5 {
		t.Fatalf("Ring(5) = %+v", r)
	}
	for i, p := range r.Pairs {
		if p[0] != i || p[1] != (i+1)%5 {
			t.Fatalf("Ring(5) pair %d = %v", i, p)
		}
	}
	in := Incast(4)
	if in.Hosts != 4 || len(in.Pairs) != 3 {
		t.Fatalf("Incast(4) = %+v", in)
	}
	for _, p := range in.Pairs {
		if p[1] != 0 {
			t.Fatalf("Incast pair %v does not converge on host 0", p)
		}
	}
	for _, s := range []Spec{Pair(), Ring(2), Ring(5), Incast(4)} {
		if err := s.Validate(); err != nil {
			t.Fatalf("constructor spec invalid: %v (%+v)", err, s)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []Spec{
		{Hosts: 0},
		{Hosts: 2, PerByteUS: -1},
		{Hosts: 2, FixedUS: -1},
		{Hosts: 2, Pairs: [][2]int{{0, 2}}},
		{Hosts: 2, Pairs: [][2]int{{-1, 0}}},
		{Hosts: 2, Pairs: [][2]int{{1, 1}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d (%+v) validated", i, s)
		}
	}
	if err := (Spec{Hosts: 1}).Validate(); err != nil {
		t.Fatalf("single isolated host should be valid: %v", err)
	}
}
