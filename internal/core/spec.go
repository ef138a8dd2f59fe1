package core

import (
	"encoding/json"
	"fmt"
	"strings"
)

// MachineSpec is the serializable description of a machine, for
// configuration files and the command-line tools. Unused fields may be
// omitted; zero values fall back to the calibrated defaults for the
// architecture type.
type MachineSpec struct {
	Type        string  `json:"type"` // hypercube | mesh | sync-bus | async-bus | full-async-bus | banyan
	Procs       int     `json:"procs,omitempty"`
	Tflp        float64 `json:"tflp,omitempty"`
	BusCycle    float64 `json:"b,omitempty"`
	BusOverhead float64 `json:"c,omitempty"`
	Alpha       float64 `json:"alpha,omitempty"`
	Beta        float64 `json:"beta,omitempty"`
	PacketWords float64 `json:"packet,omitempty"`
	SwitchTime  float64 `json:"w,omitempty"`
	ReadsOnly   bool    `json:"reads_only,omitempty"`
	ConvHW      bool    `json:"convergence_hardware,omitempty"`
}

// Machine materializes the spec into an Architecture, applying
// calibrated defaults for omitted fields and validating the result.
func (s MachineSpec) Machine() (Architecture, error) {
	tflp := s.Tflp
	if tflp == 0 {
		tflp = DefaultTflp
	}
	b := s.BusCycle
	if b == 0 {
		b = DefaultBusCycle
	}
	alpha := s.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	beta := s.Beta
	if beta == 0 {
		beta = DefaultBeta
	}
	packet := s.PacketWords
	if packet == 0 {
		packet = DefaultPacketWords
	}
	w := s.SwitchTime
	if w == 0 {
		w = DefaultSwitchTime
	}
	var arch Architecture
	switch s.Type {
	case "hypercube":
		arch = Hypercube{TflpTime: tflp, Alpha: alpha, Beta: beta, PacketWords: packet, NProcs: s.Procs}
	case "mesh":
		arch = Mesh{TflpTime: tflp, Alpha: alpha, Beta: beta, PacketWords: packet, NProcs: s.Procs,
			ConvergenceHardware: s.ConvHW}
	case "sync-bus":
		arch = SyncBus{TflpTime: tflp, B: b, C: s.BusOverhead, NProcs: s.Procs, ReadsOnly: s.ReadsOnly}
	case "async-bus":
		arch = AsyncBus{TflpTime: tflp, B: b, C: s.BusOverhead, NProcs: s.Procs}
	case "full-async-bus":
		arch = AsyncBus{TflpTime: tflp, B: b, C: s.BusOverhead, NProcs: s.Procs,
			Overlap: OverlapReadsAndWrites}
	case "banyan":
		arch = Banyan{TflpTime: tflp, W: w, NProcs: s.Procs}
	default:
		return nil, fmt.Errorf("core: unknown machine type %q", s.Type)
	}
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	return arch, nil
}

// ParseMachine decodes a JSON machine spec and materializes it.
func ParseMachine(data []byte) (Architecture, error) {
	var spec MachineSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("core: bad machine spec: %w", err)
	}
	return spec.Machine()
}

// ParseMachineArg reads a machine given as a command-line argument: a
// bare type name such as "sync-bus", or a full JSON spec when the
// argument starts with '{'. The spec is returned unmaterialized, so
// omitted fields still take the calibrated defaults in Machine.
func ParseMachineArg(arg string) (MachineSpec, error) {
	if !strings.HasPrefix(arg, "{") {
		return MachineSpec{Type: arg}, nil
	}
	var spec MachineSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return MachineSpec{}, fmt.Errorf("core: bad machine spec: %w", err)
	}
	return spec, nil
}

// SpecFor returns the serializable spec of an architecture (the inverse
// of MachineSpec.Machine for the supported types).
func SpecFor(arch Architecture) (MachineSpec, error) {
	switch a := arch.(type) {
	case Hypercube:
		return MachineSpec{Type: "hypercube", Procs: a.NProcs, Tflp: a.TflpTime,
			Alpha: a.Alpha, Beta: a.Beta, PacketWords: a.PacketWords}, nil
	case Mesh:
		return MachineSpec{Type: "mesh", Procs: a.NProcs, Tflp: a.TflpTime,
			Alpha: a.Alpha, Beta: a.Beta, PacketWords: a.PacketWords, ConvHW: a.ConvergenceHardware}, nil
	case SyncBus:
		return MachineSpec{Type: "sync-bus", Procs: a.NProcs, Tflp: a.TflpTime,
			BusCycle: a.B, BusOverhead: a.C, ReadsOnly: a.ReadsOnly}, nil
	case AsyncBus:
		typ := "async-bus"
		if a.Overlap == OverlapReadsAndWrites {
			typ = "full-async-bus"
		}
		return MachineSpec{Type: typ, Procs: a.NProcs, Tflp: a.TflpTime,
			BusCycle: a.B, BusOverhead: a.C}, nil
	case Banyan:
		return MachineSpec{Type: "banyan", Procs: a.NProcs, Tflp: a.TflpTime, SwitchTime: a.W}, nil
	default:
		return MachineSpec{}, fmt.Errorf("core: no spec for %T", arch)
	}
}

// MarshalMachine encodes an architecture as a JSON machine spec.
func MarshalMachine(arch Architecture) ([]byte, error) {
	spec, err := SpecFor(arch)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(spec, "", "  ")
}
