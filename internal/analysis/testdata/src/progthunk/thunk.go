// Package progthunk is a fixture for the call-graph engine's flow
// propagation across a constructor: a queue runs a closure handed to it at
// construction, so the closure is connected to the //ascoma:hotpath root
// only through a func-typed field the argument flowed into.
package progthunk

// queue runs the thunk stored at construction.
type queue struct{ task func(int) }

func newQueue(task func(int)) *queue { return &queue{task: task} }

// loop is the root; whatever reached q.task runs here.
//
//ascoma:hotpath
func (q *queue) loop() { q.task(0) }

func work(i int) {}

// build wires the thunk.
func build() *queue {
	return newQueue(func(i int) { work(i) })
}
