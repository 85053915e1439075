//! Negative fixture for `cov-block-law`: a block table and sites that
//! agree. Every site names a literal block the table declares, every
//! row has a site outside test code, and the things that merely look
//! like sites — a comment, a string, another name's `hit`, a map hit
//! through a variable — are left alone.

pub static BLOCK_LINES: [[u8; BLOCKS_PER_COMPONENT]; COMPONENT_COUNT] = block_lines(&[
    (Component::Vmx, &[
        // hypervisor.rs
        (0, 6), (1, 2),
        // handlers/mod.rs
        (12, 5),
    ]),
    (Component::Io, &[(0, 3)]),
    (Component::IrisFramework, &[(2, 3)]),
]);

pub fn dispatch(ctx: &mut ExitCtx<'_>) {
    ctx.cov.hit(Component::Vmx, 0);
    if ctx.pending() {
        ctx.cov.hit(Component::Vmx, 1);
    }
    ctx.cov.hit(Component::Vmx, 12);
    // A retired site, kept as a note: ctx.cov.hit(Component::Vmx, 99).
    log("would have been ctx.cov.hit(Component::Vmx, 98)");
    ctx.mycov.hit(Component::Vmx, 97);
}

pub fn port_io(cov: &mut CovSink<'_>) {
    cov.hit(Component::Io, 0);
    cov.hit(crate::coverage::Component::IrisFramework, 2);
}

pub fn fold(discovered: &mut CoverageMap, out: &CoverageMap, baseline: &CoverageMap) {
    for (block, _) in out.iter() {
        if !baseline.contains(block) {
            discovered.hit(block);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_may_hit_any_declared_block() {
        let mut ctx = ctx();
        ctx.cov.hit(Component::Vmx, 12);
    }
}
