package shaper

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
)

func TestBankRequiredSize(t *testing.T) {
	b := NewBank(3, 4)
	if got := b.RequiredSize(); got != 0 {
		t.Fatalf("empty bank requires %d", got)
	}
	if err := b.Attach(5, 2); err != nil {
		t.Fatal(err)
	}
	if got := b.RequiredSize(); got != 3 {
		t.Fatalf("required = %d, want 3 (highest id 2)", got)
	}
}

func TestBankResize(t *testing.T) {
	b := NewBank(3, 4)
	if err := b.Attach(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Configure(2, ethernet.Mbps, ethernet.Gbps); err != nil {
		t.Fatal(err)
	}
	if err := b.Resize(0, 4); err == nil {
		t.Fatal("map shrink below bindings accepted")
	}
	if err := b.Resize(3, 2); err == nil {
		t.Fatal("cbs shrink below live shaper accepted")
	}
	if err := b.Resize(5, 3); err != nil {
		t.Fatal(err)
	}
	// The binding and its slope survive.
	if got := b.For(5); got == nil || got.idleSlope != ethernet.Mbps {
		t.Fatal("binding lost across resize")
	}
	// The grown map admits more bindings.
	for q := 0; q < 4; q++ {
		if err := b.Attach(q, 0); err != nil {
			t.Fatalf("attach q%d: %v", q, err)
		}
	}
	if err := b.Attach(7, 0); err == nil {
		t.Fatal("attach beyond new map size accepted")
	}
}
