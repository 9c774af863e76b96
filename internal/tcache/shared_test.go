package tcache

import "testing"

func TestShapeKeyDistinguishesShapeAndWidth(t *testing.T) {
	a := ShapeKey(32, 3, 224, 224, 4)
	if b := ShapeKey(32, 3, 224, 224, 4); b != a {
		t.Fatalf("same shape hashed differently: %#x vs %#x", a, b)
	}
	for _, other := range []uint64{
		ShapeKey(64, 3, 224, 224, 4),
		ShapeKey(32, 4, 224, 224, 4),
		ShapeKey(32, 3, 225, 224, 4),
		ShapeKey(32, 3, 224, 225, 4),
		ShapeKey(32, 3, 224, 224, 2),
	} {
		if other == a {
			t.Fatalf("distinct shape collided with %#x", a)
		}
	}
}

func TestSharedAcquireReuseRelease(t *testing.T) {
	s := NewShared()
	k := ShapeKey(32, 64, 56, 56, 4)
	const bytes = int64(32 * 64 * 56 * 56 * 4)

	reused, err := s.Acquire(k, bytes)
	if err != nil || reused {
		t.Fatalf("first acquire: reused=%v err=%v", reused, err)
	}
	if got := s.ReservedBytes(); got != bytes {
		t.Fatalf("reserved %d, want %d", got, bytes)
	}
	if got := s.SavedBytes(); got != 0 {
		t.Fatalf("saved %d after single acquire, want 0", got)
	}

	reused, err = s.Acquire(k, bytes)
	if err != nil || !reused {
		t.Fatalf("second acquire: reused=%v err=%v", reused, err)
	}
	if got := s.ReservedBytes(); got != bytes {
		t.Fatalf("reserved %d after reuse, want %d (charged once)", got, bytes)
	}
	if got := s.SavedBytes(); got != bytes {
		t.Fatalf("saved %d, want %d", got, bytes)
	}
	if got := s.Refs(k); got != 2 {
		t.Fatalf("refs %d, want 2", got)
	}

	if err := s.Release(k); err != nil {
		t.Fatal(err)
	}
	if got := s.SavedBytes(); got != 0 {
		t.Fatalf("saved %d after release, want 0", got)
	}
	if err := s.Release(k); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.ReservedBytes() != 0 {
		t.Fatalf("registry not empty after last release: len=%d reserved=%d", s.Len(), s.ReservedBytes())
	}
}

func TestSharedErrors(t *testing.T) {
	s := NewShared()
	k := ShapeKey(1, 1, 1, 1, 4)
	if _, err := s.Acquire(k, 0); err == nil {
		t.Fatal("acquire of 0 bytes should fail")
	}
	if err := s.Release(k); err == nil {
		t.Fatal("release of unheld key should fail")
	}
	if _, err := s.Acquire(k, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire(k, 8); err == nil {
		t.Fatal("byte-mismatched acquire should fail")
	}
}
