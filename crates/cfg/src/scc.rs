//! Strongly connected components (iterative Tarjan).

/// Calls `emit` once per strongly connected component of a graph over
/// dense node ids `0..n`, where `succs(v)` yields the successors of `v`.
///
/// Tarjan's algorithm with an explicit stack instead of recursion, so a
/// call chain of any depth fits on a small thread stack. Components come
/// out in Tarjan's order — each one before every component that reaches
/// it (callees first on a call graph) — and a component's members in the
/// order they leave Tarjan's stack, its root last.
///
/// The one SCC routine of the workspace: the stack analysis orders its
/// call graph with it, and the path analysis finds the cyclic supergraph
/// nodes with it.
pub fn sccs<I: IntoIterator<Item = usize>>(
    n: usize,
    succs: impl Fn(usize) -> I,
    mut emit: impl FnMut(&[usize]),
) {
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    // The depth-first path, each node with its remaining successors.
    let mut dfs: Vec<(usize, I::IntoIter)> = Vec::new();
    let mut next = 0u32;
    for root in 0..n {
        let mut enter = (index[root] == u32::MAX).then_some(root);
        loop {
            if let Some(v) = enter.take() {
                (index[v], low[v]) = (next, next);
                next += 1;
                stack.push(v);
                on_stack[v] = true;
                dfs.push((v, succs(v).into_iter()));
            }
            let Some((v, succ)) = dfs.last_mut() else { break };
            let v = *v;
            match succ.next() {
                Some(w) if index[w] == u32::MAX => enter = Some(w),
                Some(w) if on_stack[w] => low[v] = low[v].min(index[w]),
                Some(_) => {}
                None => {
                    dfs.pop();
                    if let Some(&(p, _)) = dfs.last() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let root_at = stack.iter().rposition(|&w| w == v).expect("on the stack");
                        let component = &mut stack[root_at..];
                        component.iter().for_each(|&w| on_stack[w] = false);
                        component.reverse();
                        emit(component);
                        stack.truncate(root_at);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn components_come_out_successors_first() {
        // 0 → 1 ⇄ 2 → 3, and 3 → 3.
        let succs = [vec![1], vec![2], vec![1, 3], vec![3]];
        let mut out = Vec::new();
        super::sccs(succs.len(), |v| succs[v].iter().copied(), |c| out.push(c.to_vec()));
        assert_eq!(out, [vec![3], vec![2, 1], vec![0]]);
    }
}
