//! ORD002 fixture: dereferencing the value of a Relaxed load.

fn deref_via_binding(head: &Atomic) {
    let node = head.load(Relaxed, guard);
    let next = node.deref().next;
}

fn deref_in_chain(head: &Atomic) {
    let next = head.load(Relaxed, guard).deref().next;
}

fn acquire_is_fine(head: &Atomic) {
    let node = head.load(Acquire, guard);
    let next = node.deref().next;
}

fn plain_value_is_fine(version: &AtomicU64) {
    let v = version.load(Relaxed);
    let w = v + 1;
}

fn deref_through_facade_cell(q: &Queue) {
    let tail = q.tail.load(Relaxed);
    let slot = &q.slots[tail & q.mask];
    slot.value.with_mut(|v| unsafe { (*v).write(1) });
}

fn other_with_methods_are_fine(q: &Queue) {
    let tail = q.tail.load(Relaxed);
    let slot = &q.slots[tail & q.mask];
    slot.names.with_capacity(1);
}
