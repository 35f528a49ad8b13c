//! A copy-on-write column: fixed-size chunks shared between clones.

use std::ops::Index;
use std::sync::Arc;

/// Rows per shared chunk of a [`Column`].
pub const CHUNK: usize = 1024;

/// A dense, index-addressed column of `T` whose clone shares every full
/// chunk with the original.
///
/// Rows live in `Arc<[T]>` chunks of [`CHUNK`] rows, followed by an
/// unshared tail `Vec` of at most `CHUNK` rows that pushes go to. A clone
/// copies the chunk pointers and the tail; writing a row of a shared chunk
/// copies that chunk first (`Arc::make_mut`). Two generations of a
/// document therefore hold one copy of every chunk neither has written
/// since they split, and dropping one frees only what it alone owned.
#[derive(Debug)]
pub struct Column<T> {
    chunks: Vec<Arc<[T]>>,
    tail: Vec<T>,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column { chunks: Vec::new(), tail: Vec::new() }
    }
}

impl<T: Clone> Clone for Column<T> {
    fn clone(&self) -> Self {
        // A whole chunk of capacity: the clone's own pushes (a commit's new
        // rows) never reallocate the tail.
        let mut tail = Vec::with_capacity(CHUNK);
        tail.extend_from_slice(&self.tail);
        Column { chunks: self.chunks.clone(), tail }
    }
}

impl<T> From<Vec<T>> for Column<T> {
    fn from(rows: Vec<T>) -> Self {
        let mut column = Column::default();
        for row in rows {
            column.push(row);
        }
        column
    }
}

impl<T> Index<usize> for Column<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i).expect("column index out of range")
    }
}

impl<T> Column<T> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.chunks.len() * CHUNK + self.tail.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&T> {
        let sealed = self.chunks.len() * CHUNK;
        if i < sealed {
            Some(&self.chunks[i / CHUNK][i % CHUNK])
        } else {
            self.tail.get(i - sealed)
        }
    }

    /// Appends a row, sealing the tail into a shared chunk when it is full.
    pub fn push(&mut self, row: T) {
        if self.tail.len() == CHUNK {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(CHUNK));
            self.chunks.push(full.into());
        }
        self.tail.push(row);
    }

    /// Every row in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter()).chain(&self.tail)
    }

    /// How many sealed chunks `self` and `other` hold by the same pointer
    /// — what a clone shares; test hook for the copy-on-write contract.
    #[doc(hidden)]
    pub fn shared_chunks(&self, other: &Column<T>) -> usize {
        self.chunks.iter().zip(&other.chunks).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Number of sealed (shareable) chunks; test hook.
    #[doc(hidden)]
    pub fn sealed_chunks(&self) -> usize {
        self.chunks.len()
    }
}

impl<T: Clone> Column<T> {
    /// Mutable access to row `i`, copying its chunk first if a clone
    /// shares it. `None` past the end.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let sealed = self.chunks.len() * CHUNK;
        if i < sealed {
            Some(&mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK])
        } else {
            self.tail.get_mut(i - sealed)
        }
    }

    /// Grows the column to `len` rows of `value` (never shrinks).
    pub fn grow_to(&mut self, len: usize, value: T) {
        while self.len() < len {
            self.push(value.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_survive_sealing_and_index_in_order() {
        let column: Column<usize> = (0..3 * CHUNK + 7).collect::<Vec<_>>().into();
        assert_eq!(column.len(), 3 * CHUNK + 7);
        assert_eq!(column.sealed_chunks(), 3);
        for i in [0, 1, CHUNK - 1, CHUNK, 2 * CHUNK + 5, 3 * CHUNK + 6] {
            assert_eq!(column[i], i);
            assert_eq!(column.get(i), Some(&i));
        }
        assert_eq!(column.get(3 * CHUNK + 7), None);
        assert!(column.iter().copied().eq(0..3 * CHUNK + 7));
    }

    #[test]
    fn a_clone_shares_chunks_until_one_is_written() {
        let original: Column<String> =
            (0..2 * CHUNK + 3).map(|i| i.to_string()).collect::<Vec<_>>().into();
        let mut copy = original.clone();
        assert_eq!(copy.shared_chunks(&original), 2);
        *copy.get_mut(CHUNK + 1).unwrap() = "written".into();
        *copy.get_mut(2 * CHUNK).unwrap() = "tail".into();
        copy.push("new".into());
        assert_eq!(copy.shared_chunks(&original), 1, "only the written chunk was copied");
        assert_eq!(original[CHUNK + 1], (CHUNK + 1).to_string());
        assert_eq!(original[2 * CHUNK], (2 * CHUNK).to_string());
        assert_eq!(original.len(), 2 * CHUNK + 3);
        assert_eq!(copy[CHUNK + 1], "written");
        assert_eq!(copy[2 * CHUNK], "tail");
        assert_eq!(copy[2 * CHUNK + 3], "new");
    }

    #[test]
    fn grow_to_pads_and_never_shrinks() {
        let mut column: Column<Option<u8>> = Column::default();
        column.grow_to(CHUNK + 2, None);
        assert_eq!(column.len(), CHUNK + 2);
        column.grow_to(3, Some(1));
        assert_eq!(column.len(), CHUNK + 2);
        assert!(column.iter().all(Option::is_none));
    }
}
