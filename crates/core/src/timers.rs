//! Per-stage wall-clock accounting, mirroring the breakdown of paper Fig. 8:
//! K-Means / FFT / MPI / GEMM(+Allreduce), plus point selection and
//! diagonalization stages.

/// Stage timings in seconds, read off the stage clock ([`StageTimings::since`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTimings {
    /// Weighted K-Means clustering (interpolation point selection).
    pub kmeans: f64,
    /// QRCP interpolation point selection (when that selector is used).
    pub qrcp: f64,
    /// Face-splitting product construction.
    pub face_split: f64,
    /// ISDF interpolation-vector (Θ) solve.
    pub theta: f64,
    /// FFT work: f_Hxc kernel applications.
    pub fft: f64,
    /// Dense contractions (GEMM) building V_Hxc / Ṽ_Hxc / H.
    pub gemm: f64,
    /// Communication (collectives) — the simulated MPI's `mpi:*` spans.
    pub mpi: f64,
    /// Diagonalization (SYEV or LOBPCG).
    pub diag: f64,
}

impl StageTimings {
    /// Total across all stages.
    pub fn total(&self) -> f64 {
        self.kmeans
            + self.qrcp
            + self.face_split
            + self.theta
            + self.fft
            + self.gemm
            + self.mpi
            + self.diag
    }

    /// Hamiltonian-construction subtotal (everything but diagonalization) —
    /// the scope of paper Fig. 8.
    pub fn construction(&self) -> f64 {
        self.total() - self.diag
    }

    /// Elementwise sum.
    pub fn merge(&mut self, other: &StageTimings) {
        self.kmeans += other.kmeans;
        self.qrcp += other.qrcp;
        self.face_split += other.face_split;
        self.theta += other.theta;
        self.fft += other.fft;
        self.gemm += other.gemm;
        self.mpi += other.mpi;
        self.diag += other.diag;
    }

    /// `(label, seconds)` pairs for reports, in pipeline order.
    pub fn stages(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("kmeans", self.kmeans),
            ("qrcp", self.qrcp),
            ("face_split", self.face_split),
            ("theta", self.theta),
            ("fft", self.fft),
            ("gemm", self.gemm),
            ("mpi", self.mpi),
            ("diag", self.diag),
        ]
    }

    /// Stage time charged on the calling thread since `start` was read: the
    /// difference of two readings of the one stage clock every `obskit::span`
    /// guard ticks, tracing enabled or not ([`obskit::clock`]). A stage
    /// abandoned by an early `?` return is still counted, and
    /// [`StageTimings::total`] never exceeds the thread's wall clock.
    pub fn since(start: obskit::StageClock) -> StageTimings {
        StageTimings::from_seconds(&start.elapsed())
    }

    /// The same breakdown replayed from one rank's recorded trace.
    pub fn from_trace(trace: &obskit::Trace, rank: usize) -> StageTimings {
        StageTimings::from_seconds(&trace.stage_seconds_for_rank(rank))
    }

    fn from_seconds(s: &obskit::trace::StageSeconds) -> StageTimings {
        StageTimings {
            kmeans: s[obskit::Stage::Kmeans.index()],
            qrcp: s[obskit::Stage::Qrcp.index()],
            face_split: s[obskit::Stage::FaceSplit.index()],
            theta: s[obskit::Stage::Theta.index()],
            fft: s[obskit::Stage::Fft.index()],
            gemm: s[obskit::Stage::Gemm.index()],
            mpi: s[obskit::Stage::Mpi.index()],
            diag: s[obskit::Stage::Diag.index()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_and_construction() {
        let t = StageTimings {
            kmeans: 1.0,
            qrcp: 0.0,
            face_split: 2.0,
            theta: 0.5,
            fft: 3.0,
            gemm: 4.0,
            mpi: 0.25,
            diag: 10.0,
        };
        assert!((t.total() - 20.75).abs() < 1e-12);
        assert!((t.construction() - 10.75).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = StageTimings { fft: 1.0, ..Default::default() };
        let b = StageTimings { fft: 2.0, gemm: 3.0, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.fft, 3.0);
        assert_eq!(a.gemm, 3.0);
    }

    #[test]
    fn stage_labels_cover_every_field() {
        let t = StageTimings {
            kmeans: 1.0,
            qrcp: 2.0,
            face_split: 3.0,
            theta: 4.0,
            fft: 5.0,
            gemm: 6.0,
            mpi: 7.0,
            diag: 8.0,
        };
        let sum: f64 = t.stages().iter().map(|(_, s)| s).sum();
        assert!((sum - t.total()).abs() < 1e-12);
    }
}
