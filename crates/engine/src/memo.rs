//! The one keyed memo behind everything a [`Plan`](crate::Plan) computes
//! lazily: solver results and their divisible bounds, the numeric
//! substrate, the per-solver factorization orders.

use std::borrow::Borrow;
use std::sync::{Arc, Mutex};

/// A small keyed compute-once cache handing out `Arc`s.
///
/// The value is computed *outside* the lock, so a slow solver never blocks
/// lookups of other keys.  Two first callers of one key may therefore both
/// compute; exactly one result is retained and both callers get that one.
/// A failing compute caches nothing.  Lookups scan linearly: a plan holds a
/// handful of entries (solvers × budgets).
pub(crate) struct Memo<K, V> {
    entries: Mutex<Vec<(K, Arc<V>)>>,
}

impl<K, V> Memo<K, V> {
    pub(crate) fn new() -> Self {
        Memo {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Visit the retained entries (footprint accounting).
    pub(crate) fn for_each(&self, mut visit: impl FnMut(&K, &V)) {
        for (key, value) in self.entries.lock().expect("memo poisoned").iter() {
            visit(key, value);
        }
    }

    /// The value under `key`, computing and retaining it on first use.
    pub(crate) fn get_or_try<Q, E>(
        &self,
        key: &Q,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E>
    where
        K: Borrow<Q>,
        Q: PartialEq + ToOwned<Owned = K> + ?Sized,
    {
        let find = |entries: &[(K, Arc<V>)]| {
            entries
                .iter()
                .find(|(cached, _)| cached.borrow() == key)
                .map(|(_, value)| value.clone())
        };
        if let Some(value) = find(&self.entries.lock().expect("memo poisoned")) {
            return Ok(value);
        }
        let computed = Arc::new(compute()?);
        let mut entries = self.entries.lock().expect("memo poisoned");
        if let Some(raced) = find(&entries) {
            return Ok(raced);
        }
        entries.push((key.to_owned(), computed.clone()));
        Ok(computed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn len<K, V>(memo: &Memo<K, V>) -> usize {
        let mut entries = 0;
        memo.for_each(|_, _| entries += 1);
        entries
    }

    #[test]
    fn racing_first_callers_share_the_one_retained_value() {
        let memo: Memo<String, usize> = Memo::new();
        let computes = AtomicUsize::new(0);
        // Both callers are inside `compute` — past the first lookup — before
        // either returns, so both compute and the second insert must yield.
        let both_computing = Barrier::new(2);
        let caller = |value: usize| {
            memo.get_or_try("key", || {
                computes.fetch_add(1, Ordering::SeqCst);
                both_computing.wait();
                Ok::<_, ()>(value)
            })
            .unwrap()
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| caller(1));
            let b = scope.spawn(|| caller(2));
            (a.join().expect("caller a"), b.join().expect("caller b"))
        });
        assert_eq!(computes.load(Ordering::SeqCst), 2);
        assert!(Arc::ptr_eq(&a, &b), "both callers get the retained value");
        assert_eq!(len(&memo), 1);
        // Later callers hit without computing.
        let hit = memo
            .get_or_try("key", || -> Result<usize, ()> { unreachable!("cached") })
            .unwrap();
        assert!(Arc::ptr_eq(&hit, &a));
    }

    #[test]
    fn a_failing_compute_caches_nothing() {
        let memo: Memo<i64, i64> = Memo::new();
        let key = 7;
        assert_eq!(memo.get_or_try(&key, || Err::<i64, _>("boom")), Err("boom"));
        assert_eq!(len(&memo), 0);
        // The key is not poisoned: the next compute runs and is retained.
        assert_eq!(*memo.get_or_try(&key, || Ok::<_, &str>(42)).unwrap(), 42);
        assert_eq!(
            *memo
                .get_or_try(&key, || Err::<i64, _>("not called"))
                .unwrap(),
            42
        );
        assert_eq!(len(&memo), 1);
    }
}
