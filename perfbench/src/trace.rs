//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is a stage name, start and end (ns on [`crate::clock`]), the
//! index of the span that caused it and the request it belongs to.
//! Spans are kept in a preallocated vector and written out as CSV when
//! the run ends; past the retention cap they are still counted in the
//! per-stage totals, so the reported means always cover the whole traced
//! phase.

use std::io::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// Root of one wire request: issue until its response is decoded.
    Request,
    /// Drawing the op and building its key and value.
    Gen,
    Encode,
    Seal,
    /// `write(2)` of framed requests.
    Write,
    /// `read(2)` of response bytes (shared by the frames it carries).
    Read,
    /// `FrameDecoder::feed` over one read (shared likewise).
    Frame,
    Open,
    Decode,
    /// Root of one request replayed through the server-side stages.
    Replay,
    ServerOpen,
    ServerDecode,
    Execute,
    ServerEncode,
    ServerSeal,
    CoreGet,
    CoreSet,
}

const STAGE_COUNT: usize = Stage::CoreSet as usize + 1;

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "client.request",
            Stage::Gen => "workload.gen",
            Stage::Encode => "client.protocol.encode",
            Stage::Seal => "client.session.seal",
            Stage::Write => "client.socket.write",
            Stage::Read => "client.socket.read",
            Stage::Frame => "client.frame.decode",
            Stage::Open => "client.session.open",
            Stage::Decode => "client.protocol.decode",
            Stage::Replay => "server.replay",
            Stage::ServerOpen => "server.session.open",
            Stage::ServerDecode => "server.protocol.decode",
            Stage::Execute => "server.execute",
            Stage::ServerEncode => "server.protocol.encode",
            Stage::ServerSeal => "server.session.seal",
            Stage::CoreGet => "core.get",
            Stage::CoreSet => "core.set",
        }
    }
}

/// Marks a span without a parent, or a root beyond the retention cap.
pub const NONE: u32 = u32::MAX;
/// Marks a span shared by several requests.
pub const SHARED: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub stage: Stage,
    pub parent: u32,
    pub req: u64,
    pub start: u64,
    pub end: u64,
}

/// Count and summed duration of one stage's spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub count: u64,
    pub ns: u64,
}

pub struct Tracer {
    spans: Vec<Span>,
    cap: usize,
    totals: [Total; STAGE_COUNT],
}

impl Tracer {
    pub fn new(cap: usize) -> Tracer {
        Tracer { spans: Vec::with_capacity(cap), cap, totals: [Total::default(); STAGE_COUNT] }
    }

    /// Records a finished span; returns its index (or [`NONE`] past the cap).
    pub fn span(&mut self, stage: Stage, start: u64, end: u64, parent: u32, req: u64) -> u32 {
        let t = &mut self.totals[stage as usize];
        t.count += 1;
        t.ns += end.saturating_sub(start);
        self.push(Span { stage, parent, req, start, end })
    }

    /// Opens a root span whose end [`Tracer::close`] fills in later.
    pub fn open(&mut self, stage: Stage, start: u64, req: u64) -> u32 {
        self.push(Span { stage, parent: NONE, req, start, end: start })
    }

    pub fn close(&mut self, id: u32, stage: Stage, start: u64, end: u64) {
        let t = &mut self.totals[stage as usize];
        t.count += 1;
        t.ns += end.saturating_sub(start);
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end = end;
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= self.cap {
            return NONE;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn total(&self, stage: Stage) -> Total {
        self.totals[stage as usize]
    }

    /// Folds another tracer's spans (re-indexed) and totals into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        for mut s in other.spans {
            if self.spans.len() >= self.cap {
                break;
            }
            if s.parent != NONE {
                s.parent += offset;
            }
            self.spans.push(s);
        }
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            a.count += b.count;
            a.ns += b.ns;
        }
    }

    /// Writes the retained spans as CSV: `index,req,stage,parent,start_ns,end_ns`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index,req,stage,parent,start_ns,end_ns")?;
        let opt = |v: u64, none: u64| if v == none { String::new() } else { v.to_string() };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{i},{},{},{},{},{}",
                opt(s.req, SHARED),
                s.stage.name(),
                opt(u64::from(s.parent), u64::from(NONE)),
                s.start,
                s.end
            )?;
        }
        w.flush()
    }
}
