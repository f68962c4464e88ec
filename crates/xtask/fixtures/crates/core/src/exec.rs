//! Lint fixture: the plan runner falls under the ops-unwrap rule and
//! violates it once. Not compiled — scanned by `lint::tests` only.

fn last_group(groups: &mut Vec<Vec<usize>>) -> &mut Vec<usize> {
    groups.last_mut().unwrap()
}

fn marked_group(groups: &mut Vec<Vec<usize>>) -> &mut Vec<usize> {
    // lint:allow(unwrap): should-not-fire — caller pushed a group first
    groups.last_mut().unwrap()
}
