// Package lockheld is the analysistest fixture for the lockheld
// analyzer: blocking work under a held sync.Mutex, lock-ordering
// acquisitions, the same-package interprocedural fixpoint, and
// //dms:lockok suppressions.
package lockheld

import (
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
	ch chan int
	n  int
}

type other struct {
	mu sync.Mutex
}

func (b *box) sleepHeld() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while b.mu is held"
	b.mu.Unlock()
}

func (b *box) sendHeld() {
	b.mu.Lock()
	b.ch <- 1 // want "channel send while b.mu is held"
	b.mu.Unlock()
}

func (b *box) recvHeld() {
	b.mu.Lock()
	<-b.ch // want "channel receive while b.mu is held"
	b.mu.Unlock()
}

func (b *box) selectHeld() {
	b.mu.Lock()
	select { // want "blocking select while b.mu is held"
	case v := <-b.ch:
		b.n = v
	}
	b.mu.Unlock()
}

func (b *box) selectDefaultOK() {
	b.mu.Lock()
	select {
	case v := <-b.ch:
		b.n = v
	default:
	}
	b.mu.Unlock()
}

func (b *box) deferredHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while b.mu is held"
}

func (b *box) releasedOK() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	time.Sleep(time.Millisecond)
}

func (b *box) nested(o *other) {
	b.mu.Lock()
	o.mu.Lock() // want "acquires o.mu while b.mu is held (lock ordering)"
	o.mu.Unlock()
	b.mu.Unlock()
}

func helper() {
	time.Sleep(time.Millisecond)
}

func (b *box) viaHelper() {
	b.mu.Lock()
	helper() // want "call to helper (time.Sleep) while b.mu is held"
	b.mu.Unlock()
}

func (b *box) closureOK() {
	b.mu.Lock()
	f := func() { time.Sleep(time.Millisecond) }
	b.mu.Unlock()
	f()
}

func (b *box) condWaitOK(c *sync.Cond) {
	c.L.Lock()
	for b.n == 0 {
		c.Wait()
	}
	c.L.Unlock()
}

func (b *box) suppressed() {
	b.mu.Lock()
	time.Sleep(time.Millisecond) //dms:lockok fixture: the sleep is the serialization point here
	b.mu.Unlock()
}

func blockingErr() error {
	time.Sleep(time.Millisecond)
	return nil
}

func blockingInt() int {
	time.Sleep(time.Millisecond)
	return 0
}

func (b *box) ifInitHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := blockingErr(); err != nil { // want "call to blockingErr (time.Sleep) while b.mu is held"
		b.n++
	}
}

func (b *box) ifInitSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	//dms:lockok fixture: the call is the serialization point here
	if err := blockingErr(); err != nil {
		b.n++
	}
}

func (b *box) forInitHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := blockingInt(); i < 1; i++ { // want "call to blockingInt (time.Sleep) while b.mu is held"
		b.n++
	}
}

func (b *box) forInitSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := blockingInt(); i < 1; i++ { //dms:lockok fixture: the call is the serialization point here
		b.n++
	}
}

func (b *box) forCondHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n < blockingInt() { // want "call to blockingInt (time.Sleep) while b.mu is held"
		b.n++
	}
}

func (b *box) forCondSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n < blockingInt() { //dms:lockok fixture: the call is the serialization point here
		b.n++
	}
}

func (b *box) forPostHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < 1; i += blockingInt() { // want "call to blockingInt (time.Sleep) while b.mu is held"
		b.n++
	}
}

func (b *box) forPostSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < 1; i += blockingInt() { //dms:lockok fixture: the call is the serialization point here
		b.n++
	}
}

func (b *box) switchInitHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch v := blockingInt(); v { // want "call to blockingInt (time.Sleep) while b.mu is held"
	case 0:
		b.n++
	}
}

func (b *box) switchInitSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch v := blockingInt(); v { //dms:lockok fixture: the call is the serialization point here
	case 0:
		b.n++
	}
}

func (b *box) switchTagHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch blockingInt() { // want "call to blockingInt (time.Sleep) while b.mu is held"
	case 0:
		b.n++
	}
}

func (b *box) switchTagSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch blockingInt() { //dms:lockok fixture: the call is the serialization point here
	case 0:
		b.n++
	}
}

func (b *box) caseExprHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.n {
	case blockingInt(): // want "call to blockingInt (time.Sleep) while b.mu is held"
		b.n++
	}
}

func (b *box) caseExprSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.n {
	case blockingInt(): //dms:lockok fixture: the call is the serialization point here
		b.n++
	}
}

func (b *box) typeSwitchInitHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch err := blockingErr(); err.(type) { // want "call to blockingErr (time.Sleep) while b.mu is held"
	case nil:
		b.n++
	}
}

func (b *box) typeSwitchInitSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch err := blockingErr(); err.(type) { //dms:lockok fixture: the call is the serialization point here
	case nil:
		b.n++
	}
}

func (b *box) typeSwitchAssignHeld() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch blockingErr().(type) { // want "call to blockingErr (time.Sleep) while b.mu is held"
	case nil:
		b.n++
	}
}

func (b *box) typeSwitchAssignSuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch blockingErr().(type) { //dms:lockok fixture: the call is the serialization point here
	case nil:
		b.n++
	}
}
