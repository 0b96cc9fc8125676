//! VCD (Value Change Dump) export of per-cycle probe state.
//!
//! The paper validates SafeDM by inspecting core pipelines cycle-by-cycle
//! in Modelsim (Section V-A/V-C). This module provides the model's
//! equivalent: every [`CoreProbe`] signal — per-stage valid bits and
//! encodings, register-port enables and values, hold, commit count — plus
//! arbitrary user channels (e.g. the monitor's verdict lines) are dumped as
//! a standard IEEE 1364 VCD file that any waveform viewer (GTKWave,
//! Surfer, …) opens.

use std::fmt::Write as _;

use crate::probe::{CoreProbe, PIPE_STAGES, PIPE_WIDTH, READ_PORTS, STAGE_NAMES, WRITE_PORTS};

/// Handle to a user-registered channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Channel(usize);

#[derive(Debug, Clone)]
struct UserVar {
    name: String,
    width: u8,
    value: u64,
    last: Option<u64>,
}

/// A VCD recorder over `cores` probe streams plus user channels.
///
/// # Examples
///
/// ```
/// use safedm_soc::{CoreProbe, ProbeVcd};
///
/// let mut vcd = ProbeVcd::new(2, "safedm_model");
/// let flag = vcd.add_channel("monitor.no_diversity", 1);
/// let p = CoreProbe::default();
/// vcd.set_channel(flag, 1);
/// vcd.sample(&[&p, &p]);
/// vcd.set_channel(flag, 0);
/// vcd.sample(&[&p, &p]);
/// let text = vcd.finish();
/// assert!(text.contains("$enddefinitions"));
/// assert!(text.contains("monitor.no_diversity"));
/// ```
#[derive(Debug)]
pub struct ProbeVcd {
    cores: usize,
    module: String,
    user: Vec<UserVar>,
    time: u64,
    started: bool,
    body: String,
    // last-dumped values for change-only emission
    last_probe: Vec<Option<CoreProbe>>,
}

fn ident(mut n: usize) -> String {
    // printable short identifiers: base-94 over '!'..='~'
    let mut s = String::new();
    loop {
        s.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
    }
    s
}

impl ProbeVcd {
    /// Creates a recorder for `cores` cores under module scope `module`.
    #[must_use]
    pub fn new(cores: usize, module: &str) -> ProbeVcd {
        ProbeVcd {
            cores,
            module: module.to_owned(),
            user: Vec::new(),
            time: 0,
            started: false,
            body: String::new(),
            last_probe: vec![None; cores],
        }
    }

    /// Registers a user channel of `width` bits (1–64). Must be called
    /// before the first [`ProbeVcd::sample`].
    ///
    /// # Panics
    ///
    /// Panics if sampling has started or the width is out of range.
    pub fn add_channel(&mut self, name: &str, width: u8) -> Channel {
        assert!(!self.started, "register channels before sampling");
        assert!((1..=64).contains(&width), "channel width 1..=64");
        self.user.push(UserVar { name: name.to_owned(), width, value: 0, last: None });
        Channel(self.user.len() - 1)
    }

    /// Sets a user channel's value for the upcoming sample. Bits above the
    /// channel's declared width are discarded, so two values that agree in
    /// the dumped bits never produce a phantom change record.
    pub fn set_channel(&mut self, ch: Channel, value: u64) {
        let width = self.user[ch.0].width;
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        self.user[ch.0].value = value & mask;
    }

    // Variable id layout per core:
    //   0: hold, 1: committed, 2: halted,
    //   3..3+S*W: slot valid, then S*W raws, then read en/val, write en/val.
    fn var_base(&self, core: usize) -> usize {
        let per_core = 3 + 2 * PIPE_STAGES * PIPE_WIDTH + 2 * (READ_PORTS + WRITE_PORTS);
        core * per_core
    }

    fn user_base(&self) -> usize {
        self.var_base(self.cores)
    }

    #[allow(clippy::needless_range_loop)] // stage indices mirror the hardware layout
    fn header(&self) -> String {
        let mut h = String::new();
        let _ = writeln!(h, "$timescale 1ns $end");
        let _ = writeln!(h, "$scope module {} $end", self.module);
        for core in 0..self.cores {
            let base = self.var_base(core);
            let _ = writeln!(h, "$scope module core{core} $end");
            let _ = writeln!(h, "$var wire 1 {} hold $end", ident(base));
            let _ = writeln!(h, "$var wire 8 {} committed $end", ident(base + 1));
            let _ = writeln!(h, "$var wire 1 {} halted $end", ident(base + 2));
            let mut v = base + 3;
            for s in 0..PIPE_STAGES {
                for w in 0..PIPE_WIDTH {
                    let _ =
                        writeln!(h, "$var wire 1 {} {}_{}_valid $end", ident(v), STAGE_NAMES[s], w);
                    v += 1;
                }
            }
            for s in 0..PIPE_STAGES {
                for w in 0..PIPE_WIDTH {
                    let _ =
                        writeln!(h, "$var wire 32 {} {}_{}_inst $end", ident(v), STAGE_NAMES[s], w);
                    v += 1;
                }
            }
            for p in 0..READ_PORTS {
                let _ = writeln!(h, "$var wire 1 {} rp{p}_en $end", ident(v));
                v += 1;
                let _ = writeln!(h, "$var wire 64 {} rp{p}_data $end", ident(v));
                v += 1;
            }
            for p in 0..WRITE_PORTS {
                let _ = writeln!(h, "$var wire 1 {} wp{p}_en $end", ident(v));
                v += 1;
                let _ = writeln!(h, "$var wire 64 {} wp{p}_data $end", ident(v));
                v += 1;
            }
            let _ = writeln!(h, "$upscope $end");
        }
        for (i, u) in self.user.iter().enumerate() {
            let _ = writeln!(
                h,
                "$var wire {} {} {} $end",
                u.width,
                ident(self.user_base() + i),
                u.name
            );
        }
        let _ = writeln!(h, "$upscope $end");
        let _ = writeln!(h, "$enddefinitions $end");
        h
    }

    fn emit_scalar(body: &mut String, id: usize, v: bool) {
        let _ = writeln!(body, "{}{}", u8::from(v), ident(id));
    }

    fn emit_vec(body: &mut String, id: usize, v: u64, width: u8) {
        let _ = write!(body, "b");
        if v == 0 {
            let _ = write!(body, "0");
        } else {
            let top = 63 - v.leading_zeros() as u8;
            for bit in (0..=top.min(width - 1)).rev() {
                let _ = write!(body, "{}", (v >> bit) & 1);
            }
        }
        let _ = writeln!(body, " {}", ident(id));
    }

    /// Records one cycle of probes (one entry per core, in order).
    ///
    /// # Panics
    ///
    /// Panics if the number of probes differs from the configured cores.
    #[allow(clippy::needless_range_loop)] // stage indices mirror the hardware layout
    pub fn sample(&mut self, probes: &[&CoreProbe]) {
        assert_eq!(probes.len(), self.cores, "one probe per core");
        self.started = true;
        let mut changes = String::new();
        for (core, probe) in probes.iter().enumerate() {
            let base = self.var_base(core);
            let last = self.last_probe[core];
            let diff1 = |ch: &mut String, id: usize, now: bool, before: Option<bool>| {
                if before != Some(now) {
                    Self::emit_scalar(ch, id, now);
                }
            };
            let diffv = |ch: &mut String, id: usize, now: u64, before: Option<u64>, width: u8| {
                if before != Some(now) {
                    Self::emit_vec(ch, id, now, width);
                }
            };
            diff1(&mut changes, base, probe.hold, last.map(|l| l.hold));
            diffv(
                &mut changes,
                base + 1,
                u64::from(probe.committed),
                last.map(|l| u64::from(l.committed)),
                8,
            );
            diff1(&mut changes, base + 2, probe.halted, last.map(|l| l.halted));
            let mut v = base + 3;
            for s in 0..PIPE_STAGES {
                for w in 0..PIPE_WIDTH {
                    diff1(
                        &mut changes,
                        v,
                        probe.stages[s][w].valid,
                        last.map(|l| l.stages[s][w].valid),
                    );
                    v += 1;
                }
            }
            for s in 0..PIPE_STAGES {
                for w in 0..PIPE_WIDTH {
                    diffv(
                        &mut changes,
                        v,
                        u64::from(probe.stages[s][w].raw),
                        last.map(|l| u64::from(l.stages[s][w].raw)),
                        32,
                    );
                    v += 1;
                }
            }
            let reads = (0..READ_PORTS).map(|p| (probe.read_port(p), last.map(|l| l.read_port(p))));
            let writes =
                (0..WRITE_PORTS).map(|p| (probe.write_port(p), last.map(|l| l.write_port(p))));
            for (now, before) in reads.chain(writes) {
                diff1(&mut changes, v, now.enable, before.map(|b| b.enable));
                v += 1;
                diffv(&mut changes, v, now.value, before.map(|b| b.value), 64);
                v += 1;
            }
            self.last_probe[core] = Some(**probe);
        }
        let ub = self.user_base();
        for i in 0..self.user.len() {
            let (value, width, last) = {
                let u = &self.user[i];
                (u.value, u.width, u.last)
            };
            if last != Some(value) {
                if width == 1 {
                    Self::emit_scalar(&mut changes, ub + i, value != 0);
                } else {
                    Self::emit_vec(&mut changes, ub + i, value, width);
                }
                self.user[i].last = Some(value);
            }
        }
        if !changes.is_empty() || self.time == 0 {
            let _ = writeln!(self.body, "#{}", self.time);
            self.body.push_str(&changes);
        }
        self.time += 1;
    }

    /// Number of cycles recorded.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.time
    }

    /// Finalises and returns the VCD text.
    #[must_use]
    pub fn finish(mut self) -> String {
        let _ = writeln!(self.body, "#{}", self.time);
        let mut out = self.header();
        out.push_str(&self.body);
        out
    }

    /// Finalises and writes the VCD to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn write_to(self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::StageSlot;

    #[test]
    fn header_declares_all_vars() {
        let mut vcd = ProbeVcd::new(2, "tb");
        vcd.add_channel("extra", 4);
        let p = CoreProbe::default();
        vcd.sample(&[&p, &p]);
        let text = vcd.finish();
        let vars = text.matches("$var wire").count();
        // per core: 3 + 14 valids + 14 raws + 4*2 + 2*2 = 43; 2 cores + 1 user
        assert_eq!(vars, 2 * 43 + 1);
        assert!(text.contains("$enddefinitions $end"));
        assert!(text.contains("F_0_valid"));
        assert!(text.contains("WB_1_inst"));
        assert!(text.contains("rp3_data"));
        assert!(text.contains("extra"));
    }

    #[test]
    fn change_only_emission() {
        let mut vcd = ProbeVcd::new(1, "tb");
        let mut p = CoreProbe::default();
        vcd.sample(&[&p]); // full dump at t0
        vcd.sample(&[&p]); // no changes: no #1 timestamp
        p.hold = true;
        vcd.sample(&[&p]); // one change at t2
        let text = vcd.finish();
        assert!(text.contains("#0\n"));
        assert!(!text.contains("#1\n"));
        assert!(text.contains("#2\n"));
        // hold is the first var of core 0
        assert!(text.contains(&format!("1{}", ident(0))));
    }

    #[test]
    fn vector_values_binary() {
        let mut vcd = ProbeVcd::new(1, "tb");
        let mut p = CoreProbe::default();
        p.stages[0][0] = StageSlot { valid: true, raw: 0b1011 };
        vcd.sample(&[&p]);
        let text = vcd.finish();
        assert!(text.contains("b1011 "), "raw encoding must appear in binary: {text}");
    }

    #[test]
    fn user_channels_tracked() {
        let mut vcd = ProbeVcd::new(1, "tb");
        let ch = vcd.add_channel("diff", 16);
        let p = CoreProbe::default();
        vcd.set_channel(ch, 0x2a);
        vcd.sample(&[&p]);
        vcd.sample(&[&p]); // unchanged: nothing emitted
        vcd.set_channel(ch, 0x2b);
        vcd.sample(&[&p]);
        let text = vcd.finish();
        assert!(text.contains("b101010 "));
        assert!(text.contains("b101011 "));
        assert_eq!(vcd_count_timestamps(&text), 3); // t0, t2, final
    }

    fn vcd_count_timestamps(t: &str) -> usize {
        t.lines().filter(|l| l.starts_with('#')).count()
    }

    #[test]
    fn wide_channel_small_values_use_vector_syntax() {
        // A multi-bit channel must emit `b<binary>` records even when the
        // value fits in a single bit, or GTKWave mis-decodes the channel.
        let mut vcd = ProbeVcd::new(1, "tb");
        let ch = vcd.add_channel("wide", 8);
        let p = CoreProbe::default();
        vcd.set_channel(ch, 0);
        vcd.sample(&[&p]);
        vcd.set_channel(ch, 1);
        vcd.sample(&[&p]);
        let text = vcd.finish();
        let id = ident(vcd_user_base_for(1));
        assert!(text.contains(&format!("b0 {id}")), "zero must be a vector record: {text}");
        assert!(text.contains(&format!("b1 {id}")), "one must be a vector record: {text}");
        assert!(!text.contains(&format!("\n0{id}")), "no scalar records for wide channels");
        assert!(!text.contains(&format!("\n1{id}")), "no scalar records for wide channels");
    }

    #[test]
    fn out_of_width_bits_do_not_cause_phantom_changes() {
        let mut vcd = ProbeVcd::new(1, "tb");
        let ch = vcd.add_channel("nibble", 4);
        let p = CoreProbe::default();
        vcd.set_channel(ch, 0x0a);
        vcd.sample(&[&p]);
        vcd.set_channel(ch, 0x1a); // same low nibble: must not re-emit
        vcd.sample(&[&p]);
        let text = vcd.finish();
        assert_eq!(text.matches("b1010 ").count(), 1, "identical visible value re-emitted");
        assert_eq!(vcd_count_timestamps(&text), 2); // t0 and the final marker
    }

    fn vcd_user_base_for(cores: usize) -> usize {
        ProbeVcd::new(cores, "tb").user_base()
    }

    #[test]
    #[should_panic(expected = "register channels before sampling")]
    fn late_channel_registration_panics() {
        let mut vcd = ProbeVcd::new(1, "tb");
        let p = CoreProbe::default();
        vcd.sample(&[&p]);
        vcd.add_channel("late", 1);
    }

    #[test]
    fn ident_unique_and_printable() {
        let ids: Vec<String> = (0..500).map(ident).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        for id in ids {
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)));
        }
    }
}
