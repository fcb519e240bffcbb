//! Known-bad fixture: R3 (literal-index) must fire on the two literal slice
//! indexes — and on neither the variable index, the array literal, the
//! string, nor the `#[cfg(test)]` module.

pub fn first(xs: &[u32], i: usize) -> u32 {
    let head = xs[0];
    let pair = [xs[i], 7];
    let _label = "xs[0] inside a string is not an index";
    head + pair[1]
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch() {
        assert_eq!(super::first(&[3, 4], 1)[0], 7);
    }
}
