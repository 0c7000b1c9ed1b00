// Package client breaks each of store.Ledger's lock contracts once
// from across the package boundary, next to a disciplined twin: the
// annotations live only in the store package.
package client

import "lockmod.example/internal/store"

// Peek reads the guarded total without holding Mu.
func Peek(l *store.Ledger) int {
	return l.Total // want "l.Total is guarded by Mu, which is not held here on any path"
}

// Bump calls the requires-annotated method without holding Mu.
func Bump(l *store.Ledger) {
	l.AddLocked(1) // want "AddLocked requires l.Mu held, and it is not held here on any path"
}

// Double calls the locks-annotated method while holding Mu on every
// path.
func Double(l *store.Ledger) {
	l.Mu.Lock()
	defer l.Mu.Unlock()
	l.Add(1) // want "Add locks l.Mu, which is already held here on every path — self-deadlock"
}

// Settle holds Mu across the guarded read and the requires call, and
// calls the locking method only after releasing it. Silent.
func Settle(l *store.Ledger) int {
	l.Mu.Lock()
	l.AddLocked(1)
	v := l.Total
	l.Mu.Unlock()
	l.Add(v)
	return v
}
