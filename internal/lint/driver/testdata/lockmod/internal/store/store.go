// Package store seeds every lockcheck flagging path — unguarded reads,
// requires-contract violations, self-deadlocks, bad annotations — next
// to the disciplined patterns that must stay silent.
package store

import "sync"

// Store is a counter whose guard discipline is annotated.
type Store struct {
	mu   sync.Mutex
	n    int // guarded by: mu — the running total
	hits int // guarded by: lock // want "guarded by: lock names no sync.Mutex/RWMutex field of struct Store"
}

// Incr holds the lock across the write. Silent.
func (s *Store) Incr() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// Peek reads the guarded field with the mutex provably not held on any
// path: the exact shape of the failLocked bug this analyzer exists to
// catch.
func (s *Store) Peek() int {
	return s.n // want "s.n is guarded by mu, which is not held here on any path"
}

// UnlockTooSoon releases before the last guarded read.
func (s *Store) UnlockTooSoon() int {
	s.mu.Lock()
	v := s.n
	s.mu.Unlock()
	return v + s.n // want "s.n is guarded by mu, which is not held here on any path"
}

// incrLocked documents its contract: the caller holds mu.
//
// requires: mu
func (s *Store) incrLocked() { s.n++ }

// Bump calls the requires-annotated helper without holding mu.
func (s *Store) Bump() {
	s.incrLocked() // want "incrLocked requires s.mu held, and it is not held here on any path"
}

// BumpLocked holds the lock across the helper. Silent — and the
// helper's own guarded write is excused by its requires annotation.
//
// locks: mu
func (s *Store) BumpLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.incrLocked()
}

// Double calls a locks-annotated method while provably holding mu on
// every path: guaranteed self-deadlock.
func (s *Store) Double() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.BumpLocked() // want "BumpLocked locks s.mu, which is already held here on every path — self-deadlock"
}

// MaybeBump only holds mu on one branch, so calling the locking method
// is not a *guaranteed* deadlock — must-analysis keeps this silent, at
// the price of missing the conditional case.
func (s *Store) MaybeBump(locked bool) {
	if locked {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.n++
		return
	}
	s.BumpLocked()
}

// badFree carries a lock-protocol annotation but has no receiver.
//
// requires: mu
func badFree() {} // want "requires:/locks: annotation on badFree, which is not a method"

// ghost names a mutex its receiver does not have.
//
// requires: gate
func (s *Store) ghost() {} // want "requires: gate names no sync.Mutex/RWMutex field of ghost's receiver"

// Ledger is the exported half of the cross-package fixture: its lock
// contracts are declared here and kept or broken in internal/client.
type Ledger struct {
	Mu    sync.Mutex
	Total int // guarded by: Mu
}

// AddLocked adds n to the total for a caller that already holds Mu.
//
// requires: Mu
func (l *Ledger) AddLocked(n int) { l.Total += n }

// Add takes Mu itself.
//
// locks: Mu
func (l *Ledger) Add(n int) {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	l.AddLocked(n)
}
