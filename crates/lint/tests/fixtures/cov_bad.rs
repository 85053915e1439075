//! Positive fixture for `cov-block-law`: every way a site and the block
//! table can disagree. In a release build none of these fails at run
//! time — an undeclared hit is ignored, a dead row just sits there — so
//! coverage would be silently wrong.

pub static BLOCK_LINES: [[u8; BLOCKS_PER_COMPONENT]; COMPONENT_COUNT] = block_lines(&[
    (Component::Vmx, &[
        (0, 6), (1, 2),
        // Nobody hits block 7 any more: a dead row.
        (7, 4),
        // Declared, but weighing nothing.
        (8, 0),
    ]),
    // Block 5 is only ever hit from a test.
    (Component::Io, &[(0, 3), (5, 2)]),
]);

pub fn dispatch(ctx: &mut ExitCtx<'_>, which: Component, id: u16) {
    ctx.cov.hit(Component::Vmx, 0);
    ctx.cov.hit(Component::Vmx, 1);
    ctx.cov.hit(Component::Io, 0);
    // A typo'd id: block 11 was never declared.
    ctx.cov.hit(Component::Vmx, 11);
    // Arithmetic hides the block from anyone reading the table.
    ctx.cov.hit(Component::Vmx, 2 - 1);
    // So do variables.
    ctx.cov.hit(which, 1);
    ctx.cov.hit(Component::Io, id);
    // The weight no longer rides along with the site.
    ctx.cov.hit(Component::Io, 0, 3);
    // A zero-weight row does not make its block hittable.
    ctx.cov.hit(Component::Vmx, 8);
    // No waiver either: the table is the allowlist.
    // lint:allow(cov-block-law) -- pretend block 12 exists
    ctx.cov.hit(Component::Vmx, 12);
}

#[cfg(test)]
mod tests {
    #[test]
    fn only_a_test_hits_io_5() {
        let mut ctx = ctx();
        ctx.cov.hit(Component::Io, 5);
    }
}
