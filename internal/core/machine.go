package core

// Calibrated default machine parameters. The archived report's parameter
// table (Fig. 7) is illegible, so the defaults are calibrated from the
// paper's printed anchors — "a 256×256 grid with square partitions and a
// 5-point stencil should be solved on 1 to 14 processors; the same grid
// with a 9-point stencil should use 1 to 22 processors" — which pin
// b/T_flp = 6.25 with E(5-pt) = 5, E(9-pt) = 10. T_flp is set to a
// plausible 1987 microprocessor+FPU rate (625 kflop/s).
const (
	// DefaultTflp is the calibrated time per floating point operation.
	DefaultTflp = 1.6e-6
	// DefaultBusCycle is the calibrated bus time per word (b).
	DefaultBusCycle = 1.0e-5
	// DefaultBusOverhead is the per-word fixed overhead (c) used for
	// Fig. 7/8 reproductions: the paper's figures assume c = 0.
	DefaultBusOverhead = 0.0
	// FlexOverheadRatio is the FLEX/32's measured c/b ≈ 1000 (paper
	// §6.1), used by the interior-optimum experiments.
	FlexOverheadRatio = 1000.0
	// DefaultAlpha is the hypercube per-packet transmission cost.
	DefaultAlpha = 1.0e-5
	// DefaultBeta is the hypercube per-message startup cost; message
	// startup dominates short transfers on the iPSC-generation
	// hardware the paper cites.
	DefaultBeta = 5.0e-4
	// DefaultPacketWords is the hypercube packet payload in words.
	DefaultPacketWords = 64
	// DefaultSwitchTime is the banyan per-stage switch time (w).
	DefaultSwitchTime = 5.0e-6
	// DefaultBusProcs is the bus processor complement: "currently,
	// several vendors offer a few tens of processors on a common bus"
	// (paper §6); 16 matches the paper's worked examples.
	DefaultBusProcs = 16
)

// DefaultHypercube returns the calibrated hypercube machine; procs = 0
// leaves the machine unbounded.
func DefaultHypercube(procs int) Hypercube {
	return Hypercube{
		TflpTime:    DefaultTflp,
		Alpha:       DefaultAlpha,
		Beta:        DefaultBeta,
		PacketWords: DefaultPacketWords,
		NProcs:      procs,
	}
}

// DefaultMesh returns the calibrated mesh machine with convergence
// hardware (paper §5).
func DefaultMesh(procs int) Mesh {
	return Mesh{
		TflpTime:            DefaultTflp,
		Alpha:               DefaultAlpha,
		Beta:                DefaultBeta,
		PacketWords:         DefaultPacketWords,
		NProcs:              procs,
		ConvergenceHardware: true,
	}
}

// DefaultSyncBus returns the calibrated synchronous bus (c = 0).
func DefaultSyncBus(procs int) SyncBus {
	return SyncBus{
		TflpTime: DefaultTflp,
		B:        DefaultBusCycle,
		C:        DefaultBusOverhead,
		NProcs:   procs,
	}
}

// FlexBus returns a FLEX/32-like synchronous bus with c/b = 1000
// (paper §6.1): on such a machine interior optima cannot occur for
// realistic processor counts, so numerical problems should use all
// processors.
func FlexBus(procs int) SyncBus {
	return SyncBus{
		TflpTime: DefaultTflp,
		B:        DefaultBusCycle,
		C:        FlexOverheadRatio * DefaultBusCycle,
		NProcs:   procs,
	}
}

// DefaultAsyncBus returns the calibrated asynchronous bus (c = 0,
// posted writes overlapped).
func DefaultAsyncBus(procs int) AsyncBus {
	return AsyncBus{
		TflpTime: DefaultTflp,
		B:        DefaultBusCycle,
		C:        DefaultBusOverhead,
		NProcs:   procs,
		Overlap:  OverlapWrites,
	}
}

// DefaultBanyan returns the calibrated banyan switching network.
func DefaultBanyan(procs int) Banyan {
	return Banyan{
		TflpTime: DefaultTflp,
		W:        DefaultSwitchTime,
		NProcs:   procs,
	}
}

// PaperExampleBus returns the bus used in the paper's §6.1 in-text
// speedup examples: E(S)·T_flp = b, N = 16, k = 1, c = 0. With the
// 5-point stencil (E = 5) that pins b = 5·T_flp.
func PaperExampleBus(tflp float64, flops float64, procs int) SyncBus {
	return SyncBus{
		TflpTime: tflp,
		B:        flops * tflp,
		C:        0,
		NProcs:   procs,
	}
}
