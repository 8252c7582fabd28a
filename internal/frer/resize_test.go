package frer

import "testing"

func TestTableResize(t *testing.T) {
	tbl := NewTable(2, 16)
	if err := tbl.Register(1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Resize(1, 16); err == nil {
		t.Fatal("shrink below registered streams accepted")
	}
	if err := tbl.Resize(4, 0); err == nil {
		t.Fatal("history 0 accepted")
	}
	if err := tbl.Resize(4, MaxHistory+1); err == nil {
		t.Fatal("history beyond MaxHistory accepted")
	}
	if err := tbl.Resize(-1, 16); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := tbl.Resize(4, 32); err != nil {
		t.Fatal(err)
	}
	if tbl.Capacity() != 4 || tbl.History() != 32 {
		t.Fatalf("capacity=%d history=%d", tbl.Capacity(), tbl.History())
	}
	// Registered streams and their recovery state survive.
	if tbl.streams[1] == nil || tbl.streams[2] == nil {
		t.Fatal("streams lost across resize")
	}
	if err := tbl.Register(3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(4); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(5); err == nil {
		t.Fatal("register beyond new capacity accepted")
	}
	// Duplicate elimination still works after the resize.
	if d := tbl.Accept(1, 10); d != Pass {
		t.Fatalf("first copy = %v", d)
	}
	if d := tbl.Accept(1, 10); d != Duplicate {
		t.Fatalf("second copy = %v", d)
	}
}
