// swapleak reproduces the paper's SwapLeak case study (§3.2.3): a program
// from a Sun Developer Network post that runs out of memory because of the
// hidden outer-instance reference held by a non-static inner class.
//
// SObject has an inner class Rep; in Java, every Rep instance carries a
// hidden reference to the SObject that created it ("this$0" — modeled here
// as an explicit "outer" field). The program swaps the Rep fields of array
// elements with freshly allocated SObjects and expects the fresh SObjects to
// be reclaimed — but each swapped-in Rep still pins the SObject that created
// it. assert-dead shows exactly that path:
//
//	SArray -> [LSObject -> SObject -> SObject$Rep -> SObject
//
// Run with:
//
//	go run ./examples/swapleak
package main

import (
	"fmt"

	"gcassert"
)

func main() {
	rep := &gcassert.CollectingReporter{}
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      8 << 20,
		Infrastructure: true,
		Reporter:       rep,
	})

	sobject := vm.Define("SObject",
		gcassert.Field{Name: "rep", Ref: true},
	)
	srep := vm.Define("SObject$Rep",
		gcassert.Field{Name: "outer", Ref: true}, // the hidden this$0
		gcassert.Field{Name: "data", Ref: true},
	)
	fRep := vm.FieldIndex(sobject, "rep")
	fOuter := vm.FieldIndex(srep, "outer")

	th := vm.NewThread("main")
	fr := th.Push(2)

	// newSObject models `new SObject()`: the constructor allocates a Rep
	// whose hidden outer reference points back at the new SObject.
	newSObject := func() gcassert.Ref {
		o := th.New(sobject)
		fr.Set(1, o)
		r := th.New(srep)
		vm.SetRef(o, fRep, r)
		vm.SetRef(r, fOuter, o)
		fr.Set(1, gcassert.Nil)
		return o
	}

	// The main loop: an array of SObjects...
	const n = 64
	arr := th.NewArray(gcassert.TRefArray, n)
	fr.Set(0, arr)
	for i := 0; i < n; i++ {
		vm.SetRefAt(arr, i, newSObject())
	}

	// ...then for each element, allocate a fresh SObject, swap Rep fields,
	// and expect the fresh SObject to be collectable afterwards.
	for i := 0; i < n; i++ {
		fresh := newSObject()
		fr.Set(1, fresh)
		old := vm.RefAt(arr, i)
		or, frsh := vm.GetRef(old, fRep), vm.GetRef(fresh, fRep)
		vm.SetRef(old, fRep, frsh)
		vm.SetRef(fresh, fRep, or)
		fr.Set(1, gcassert.Nil)
		// The user's expectation: fresh is garbage now.
		vm.AssertDead(fresh)
	}

	vm.Collect()

	vs := rep.ByKind(gcassert.KindDead)
	fmt.Printf("swapped %d fresh SObjects; %d are still reachable\n\n", n, len(vs))
	if len(vs) > 0 {
		fmt.Println("the paper's warning, reproduced:")
		fmt.Println(vs[0].String())
		fmt.Println("the hidden Rep.outer reference explains the leak: the Rep")
		fmt.Println("swapped into the array still pins the SObject that created it.")
	}
}
