package workload

import (
	"fmt"
	"sync"

	"ctcp/internal/emu"
	"ctcp/internal/isa"
	"ctcp/internal/prog"
)

// Benchmark is one synthetic analog of a paper workload.
type Benchmark struct {
	Name  string
	Suite string // "spec" or "media"
	// Selected marks the six forwarding-sensitive SPECint programs the
	// paper studies in depth (§5.1).
	Selected    bool
	Description string
	// Build constructs the program with the given outer-iteration count;
	// larger scales run longer without changing steady-state behaviour.
	Build func(scale int64) *isa.Program
}

// bench assembles the common program skeleton: data preparation, register
// initialization, an outer loop emitting each kernel body once, and the
// final checksum.
func bench(seed uint64, data func(b *prog.Builder, r *rng), body func(b *prog.Builder)) func(int64) *isa.Program {
	return func(scale int64) *isa.Program {
		if scale < 1 {
			scale = 1
		}
		b := prog.New()
		r := newRNG(seed)
		data(b, r)
		b.Movi(isa.R(6), 0) // checksum
		b.Movi(isa.R(20), int64(seed&0x7FFFFFFF)|1)
		b.Movi(isa.R(1), scale)
		b.Label("outer")
		body(b)
		b.OpI(isa.SUB, isa.R(1), 1, isa.R(1))
		b.Branch(isa.BNE, isa.R(1), "outer")
		b.Out(isa.R(6))
		b.Halt()
		p, err := b.Build()
		if err != nil {
			panic(fmt.Sprintf("workload: building benchmark: %v", err))
		}
		return p
	}
}

// SPECint returns the 12 SPEC CPU2000 integer analogs.
func SPECint() []Benchmark {
	return []Benchmark{
		{
			Name: "bzip2", Suite: "spec", Selected: true,
			Description: "block compression: run coding, move-to-front, match search",
			Build: bench(0xB21B, func(b *prog.Builder, r *rng) {
				b.Bytes("buf", runnyBytes(r, 16384))
				tab := make([]byte, 64)
				for i := range tab {
					tab[i] = byte(i)
				}
				b.Bytes("mtftab", tab)
			}, func(b *prog.Builder) {
				emitRLE(b, "buf", 1024)
				emitMTF(b, "mtftab", "buf", 192)
				emitLZMatch(b, "buf", 48, 8191, 64, 24)
				emitFNV(b, "buf", 256, 1, 3)
			}),
		},
		{
			Name: "gzip", Suite: "spec", Selected: true,
			Description: "LZ77 compression: hash-chain match search and entropy coding",
			Build: bench(0x6219, func(b *prog.Builder, r *rng) {
				b.Bytes("win", runnyBytes(r, 32768))
				b.Bytes("bits", randBytes(r, 2048))
				b.Space("outbuf", 4096)
			}, func(b *prog.Builder) {
				emitLZMatch(b, "win", 128, 16383, 96, 32)
				emitFNV(b, "win", 256, 1, 3)
				emitBitUnpack(b, "bits", 48)
				emitMemcpy(b, "win", "outbuf", 512)
				emitRLE(b, "win", 512)
			}),
		},
		{
			Name: "gcc", Suite: "spec",
			Description: "compiler: symbol-table search, switch dispatch, list walks",
			Build: bench(0x6CC0, func(b *prog.Builder, r *rng) {
				b.Bytes("symtab", sortedQuads(r, 4096))
				b.Bytes("ops", smallBytes(r, 4096, 8))
				placeList(b, r, "nodes", 2048)
				b.Bytes("src", textBytes(r, 4096))
				b.Space("irbuf", 2048)
			}, func(b *prog.Builder) {
				emitTreeSearch(b, "symtab", 4096, 48)
				emitDispatch(b, "ops", 256)
				emitPointerChase(b, "nodes_head", "nodes_head2", 256)
				emitTokenize(b, "src", 512)
				emitMemcpy(b, "src", "irbuf", 256)
			}),
		},
		{
			Name: "mcf", Suite: "spec",
			Description: "network simplex: pointer chasing over a large arc set",
			Build: bench(0x3CF1, func(b *prog.Builder, r *rng) {
				placeList(b, r, "arcs", 16384) // 256 KB: misses the L1
				b.Bytes("costs", randQuads(r, 2048, 0xFFFF))
			}, func(b *prog.Builder) {
				emitPointerChase(b, "arcs_head", "arcs_head2", 512)
				emitSum(b, "costs", 512)
				emitWavelet(b, "costs", 256)
			}),
		},
		{
			Name: "crafty", Suite: "spec",
			Description: "chess: bitboard manipulation, popcount, evaluation tables",
			Build: bench(0xC4AF, func(b *prog.Builder, r *rng) {
				b.Bytes("boards", randQuads(r, 1024, ^uint64(0)))
				b.Bytes("evals", sortedQuads(r, 1024))
				b.Space("undo", 2048)
			}, func(b *prog.Builder) {
				emitBitMangle(b, 256, 3)
				emitPopcount(b, "boards", 96)
				emitTreeSearch(b, "evals", 1024, 32)
				emitSum(b, "boards", 256)
				emitMemcpy(b, "boards", "undo", 256)
			}),
		},
		{
			Name: "parser", Suite: "spec",
			Description: "link grammar parser: tokenizing and dictionary search",
			Build: bench(0xAA51, func(b *prog.Builder, r *rng) {
				b.Bytes("text", textBytes(r, 8192))
				b.Bytes("dict", sortedQuads(r, 2048))
				b.Space("tokbuf", 1024)
			}, func(b *prog.Builder) {
				emitTokenize(b, "text", 1024)
				emitTreeSearch(b, "dict", 2048, 48)
				emitFNV(b, "text", 128, 1, 3)
				emitCallLeaf(b, 96)
				emitMemcpy(b, "text", "tokbuf", 256)
			}),
		},
		{
			Name: "eon", Suite: "spec", Selected: true,
			Description: "probabilistic ray tracer: FP intersection and shading math",
			Build: bench(0xE0E0, func(b *prog.Builder, r *rng) {
				b.Bytes("spheres", randDoubles(r, 1024, 0.0, 2.2))
				b.Bytes("signal", randDoubles(r, 256, 1.0, 1.0))
				b.Bytes("coef", randDoubles(r, 16, 0.0, 0.25))
				b.Space("shade", 512)
				blk := randDoubles(r, 8, 1.0, 1.0)
				blk = append(blk, doubleBytes([]float64{0.49})...)
				b.Bytes("dctblk", blk)
			}, func(b *prog.Builder) {
				emitRaySphere(b, "spheres", 96, 511)
				emitFIR(b, "signal", "coef", "shade", 24, 8)
				emitDCT8(b, "dctblk", 12)
			}),
		},
		{
			Name: "perlbmk", Suite: "spec", Selected: true,
			Description: "perl interpreter: bytecode dispatch, hashing, subroutine calls",
			Build: bench(0x9E71, func(b *prog.Builder, r *rng) {
				b.Bytes("code", smallBytes(r, 8192, 8))
				b.Bytes("keys", textBytes(r, 2048))
				b.Bytes("srcbuf", randBytes(r, 1024))
				b.Space("dstbuf", 1024)
			}, func(b *prog.Builder) {
				emitDispatch(b, "code", 512)
				emitFNV(b, "keys", 128, 1, 3)
				emitCallLeaf(b, 128)
				emitMemcpy(b, "srcbuf", "dstbuf", 512)
			}),
		},
		{
			Name: "gap", Suite: "spec",
			Description: "computational group theory: multiprecision arithmetic",
			Build: bench(0x6A90, func(b *prog.Builder, r *rng) {
				b.Bytes("biga", randQuads(r, 512, ^uint64(0)))
				b.Bytes("bigb", randQuads(r, 512, ^uint64(0)))
				b.Bytes("vec", randQuads(r, 1024, 0xFFFFF))
			}, func(b *prog.Builder) {
				emitBignum(b, "biga", "bigb", 192)
				emitSum(b, "vec", 512)
				emitBitMangle(b, 128, 2)
			}),
		},
		{
			Name: "vortex", Suite: "spec",
			Description: "object database: hashing, index search, object copies",
			Build: bench(0x0B7E, func(b *prog.Builder, r *rng) {
				b.Bytes("objs", randBytes(r, 8192))
				b.Space("store", 8192)
				b.Bytes("index", sortedQuads(r, 4096))
			}, func(b *prog.Builder) {
				emitFNV(b, "objs", 192, 1, 4)
				emitMemcpy(b, "objs", "store", 1024)
				emitTreeSearch(b, "index", 4096, 64)
			}),
		},
		{
			Name: "twolf", Suite: "spec", Selected: true,
			Description: "standard-cell placement: simulated annealing swap evaluation",
			Build: bench(0x2701, func(b *prog.Builder, r *rng) {
				b.Bytes("cells", randQuads(r, 4096, 0xFFFF))
				b.Bytes("wires", randQuads(r, 1024, 0xFFF))
				b.Bytes("net", sortedQuads(r, 1024))
			}, func(b *prog.Builder) {
				emitAnneal(b, "cells", 160, 4095)
				emitSum(b, "wires", 256)
				emitTreeSearch(b, "net", 1024, 32)
			}),
		},
		{
			Name: "vpr", Suite: "spec", Selected: true,
			Description: "FPGA place & route: maze-router grid costs and placement swaps",
			Build: bench(0x0F9A, func(b *prog.Builder, r *rng) {
				b.Bytes("grid", randQuads(r, 64*64, 0xFFFF))
				b.Bytes("blocks", randQuads(r, 2048, 0xFFFF))
			}, func(b *prog.Builder) {
				emitGridCost(b, "grid", 256, 62)
				emitAnneal(b, "blocks", 128, 2047)
				emitSum(b, "grid", 256)
			}),
		},
	}
}

// MediaBench returns the 14 MediaBench analogs used in the paper's Figure 9
// (the four-cluster set of Parcerisa et al.).
func MediaBench() []Benchmark {
	mk := func(name, desc string, seed uint64, data func(*prog.Builder, *rng), body func(*prog.Builder)) Benchmark {
		return Benchmark{Name: name, Suite: "media", Description: desc, Build: bench(seed, data, body)}
	}
	audioData := func(b *prog.Builder, r *rng) {
		b.Bytes("pcm", sampleBytes(r, 8192))
		b.Bytes("steps", quadBytes(stepTable()))
		b.Bytes("vals", randQuads(r, 2048, 0xFFFF))
		b.Space("rec", 16384)
	}
	fpData := func(b *prog.Builder, r *rng) {
		b.Bytes("sig", randDoubles(r, 512, 1.0, 1.0))
		b.Bytes("coef", randDoubles(r, 16, 0.0, 0.25))
		blk := randDoubles(r, 8, 1.0, 1.0)
		blk = append(blk, doubleBytes([]float64{0.49})...)
		b.Bytes("dctblk", blk)
		b.Bytes("bits", randBytes(r, 4096))
		b.Bytes("img", randQuads(r, 4096, 0xFF))
	}
	return []Benchmark{
		mk("adpcm_enc", "IMA ADPCM speech encoder", 0xAD01, audioData, func(b *prog.Builder) {
			emitADPCM(b, "pcm", "steps", "rec", 768)
			emitSum(b, "vals", 128)
		}),
		mk("adpcm_dec", "IMA ADPCM speech decoder", 0xAD02, func(b *prog.Builder, r *rng) {
			b.Bytes("pcm", sampleBytes(r, 8192))
			b.Bytes("steps", quadBytes(stepTable()))
			b.Bytes("bits", randBytes(r, 2048))
			b.Space("rec", 16384)
		}, func(b *prog.Builder) {
			emitADPCM(b, "pcm", "steps", "rec", 512)
			emitBitUnpack(b, "bits", 96)
		}),
		mk("epic", "wavelet image compression", 0xE41C, fpData, func(b *prog.Builder) {
			emitWavelet(b, "img", 1024)
			emitQuantize(b, "img", 384)
			emitBitUnpack(b, "bits", 48)
		}),
		mk("unepic", "wavelet image decompression", 0xE41D, fpData, func(b *prog.Builder) {
			emitBitUnpack(b, "bits", 128)
			emitWavelet(b, "img", 768)
		}),
		mk("g721_enc", "G.721 voice encoder", 0x6721, func(b *prog.Builder, r *rng) {
			b.Bytes("pcm", sampleBytes(r, 4096))
			b.Bytes("steps", quadBytes(stepTable()))
			b.Bytes("lvls", randQuads(r, 2048, 0xFFFF))
			b.Bytes("sig", randDoubles(r, 256, 1.0, 1.0))
			b.Bytes("coef", randDoubles(r, 8, 0.0, 0.25))
			b.Space("firout", 512)
			b.Space("rec", 8192)
		}, func(b *prog.Builder) {
			emitQuantize(b, "lvls", 512)
			emitFIR(b, "sig", "coef", "firout", 24, 4)
			emitADPCM(b, "pcm", "steps", "rec", 192)
		}),
		mk("g721_dec", "G.721 voice decoder", 0x6722, func(b *prog.Builder, r *rng) {
			b.Bytes("lvls", randQuads(r, 2048, 0xFFFF))
			b.Bytes("sig", randDoubles(r, 256, 1.0, 1.0))
			b.Bytes("coef", randDoubles(r, 8, 0.0, 0.25))
			b.Bytes("bits", randBytes(r, 1024))
			b.Space("firout", 512)
		}, func(b *prog.Builder) {
			emitFIR(b, "sig", "coef", "firout", 32, 4)
			emitQuantize(b, "lvls", 384)
			emitBitUnpack(b, "bits", 48)
		}),
		mk("gsm_enc", "GSM full-rate speech encoder", 0x6511, func(b *prog.Builder, r *rng) {
			b.Bytes("sig", randDoubles(r, 512, 1.0, 1.0))
			b.Bytes("coef", randDoubles(r, 16, 0.0, 0.25))
			b.Bytes("frameA", randBytes(r, 2048))
			b.Bytes("frameB", randBytes(r, 2048))
			b.Bytes("acc", randQuads(r, 1024, 0xFFFF))
			b.Space("firout", 512)
		}, func(b *prog.Builder) {
			emitFIR(b, "sig", "coef", "firout", 48, 8)
			emitSAD(b, "frameA", "frameB", 512)
			emitSum(b, "acc", 256)
		}),
		mk("gsm_dec", "GSM full-rate speech decoder", 0x6512, func(b *prog.Builder, r *rng) {
			b.Bytes("sig", randDoubles(r, 512, 1.0, 1.0))
			b.Bytes("coef", randDoubles(r, 16, 0.0, 0.25))
			b.Bytes("hist", randQuads(r, 2048, 0xFFFF))
			b.Space("firout", 512)
		}, func(b *prog.Builder) {
			emitFIR(b, "sig", "coef", "firout", 48, 8)
			emitWavelet(b, "hist", 512)
		}),
		mk("jpeg_enc", "JPEG image encoder", 0x19E6, fpData, func(b *prog.Builder) {
			emitDCT8(b, "dctblk", 24)
			emitQuantize(b, "img", 384)
			emitFNV(b, "bits", 96, 1, 3)
		}),
		mk("jpeg_dec", "JPEG image decoder", 0x19E7, func(b *prog.Builder, r *rng) {
			blk := randDoubles(r, 8, 1.0, 1.0)
			blk = append(blk, doubleBytes([]float64{0.49})...)
			b.Bytes("dctblk", blk)
			b.Bytes("bits", randBytes(r, 4096))
			b.Bytes("row", randBytes(r, 2048))
			b.Space("frame", 2048)
		}, func(b *prog.Builder) {
			emitBitUnpack(b, "bits", 96)
			emitDCT8(b, "dctblk", 24)
			emitMemcpy(b, "row", "frame", 512)
		}),
		mk("mpeg2_enc", "MPEG-2 video encoder", 0x37E6, func(b *prog.Builder, r *rng) {
			b.Bytes("ref", randBytes(r, 8192))
			b.Bytes("cur", randBytes(r, 8192))
			blk := randDoubles(r, 8, 1.0, 1.0)
			blk = append(blk, doubleBytes([]float64{0.49})...)
			b.Bytes("dctblk", blk)
			b.Bytes("lvls", randQuads(r, 1024, 0xFFFF))
		}, func(b *prog.Builder) {
			emitSAD(b, "ref", "cur", 1024)
			emitDCT8(b, "dctblk", 8)
			emitQuantize(b, "lvls", 128)
		}),
		mk("mpeg2_dec", "MPEG-2 video decoder", 0x37E7, func(b *prog.Builder, r *rng) {
			blk := randDoubles(r, 8, 1.0, 1.0)
			blk = append(blk, doubleBytes([]float64{0.49})...)
			b.Bytes("dctblk", blk)
			b.Bytes("mv", randBytes(r, 4096))
			b.Space("frame", 4096)
			b.Bytes("bits", randBytes(r, 2048))
		}, func(b *prog.Builder) {
			emitDCT8(b, "dctblk", 16)
			emitMemcpy(b, "mv", "frame", 1024)
			emitBitUnpack(b, "bits", 48)
		}),
		mk("pegwit_enc", "elliptic-curve public-key encryption", 0x9E61, func(b *prog.Builder, r *rng) {
			b.Bytes("biga", randQuads(r, 512, ^uint64(0)))
			b.Bytes("bigb", randQuads(r, 512, ^uint64(0)))
			b.Bytes("msg", randBytes(r, 2048))
		}, func(b *prog.Builder) {
			emitBignum(b, "biga", "bigb", 256)
			emitBitMangle(b, 192, 3)
			emitFNV(b, "msg", 96, 1, 3)
		}),
		mk("pegwit_dec", "elliptic-curve public-key decryption", 0x9E62, func(b *prog.Builder, r *rng) {
			b.Bytes("biga", randQuads(r, 512, ^uint64(0)))
			b.Bytes("bigb", randQuads(r, 512, ^uint64(0)))
			b.Bytes("ctA", randBytes(r, 2048))
			b.Bytes("ctB", randBytes(r, 2048))
		}, func(b *prog.Builder) {
			emitBignum(b, "biga", "bigb", 256)
			emitSAD(b, "ctA", "ctB", 384)
		}),
	}
}

// All returns the full 26-program suite.
func All() []Benchmark {
	return append(SPECint(), MediaBench()...)
}

// Selected returns the six forwarding-sensitive SPECint programs analyzed
// in depth by the paper (bzip2, eon, gzip, perlbmk, twolf, vpr).
func Selected() []Benchmark {
	var out []Benchmark
	for _, bm := range SPECint() {
		if bm.Selected {
			out = append(out, bm)
		}
	}
	return out
}

// ByName looks up a benchmark across both suites.
func ByName(name string) (Benchmark, bool) {
	for _, bm := range All() {
		if bm.Name == name {
			return bm, true
		}
	}
	return Benchmark{}, false
}

// progCache memoizes ProgramFor results: experiment sweeps run the same
// benchmark under many configurations.
var progCache sync.Map // key string -> *isa.Program

// ProgramFor builds the benchmark scaled so that a full architectural run
// commits about insts instructions. It calibrates the per-iteration
// instruction count with two short functional runs and extrapolates
// linearly. Every kernel meets insts exactly at 8k and 200k, but the
// extrapolation can fall short at large budgets: at 2M, bzip2 commits
// 1,996,795 and eon 1,998,324 (TestProgramForMeetsBudget pins >= 99.75%).
// A run budgeted past the program's end simply retires fewer instructions.
func (bm Benchmark) ProgramFor(insts uint64) *isa.Program {
	key := fmt.Sprintf("%s/%d", bm.Name, insts)
	if v, ok := progCache.Load(key); ok {
		return v.(*isa.Program)
	}
	one := instCount(bm.Build(1))
	three := instCount(bm.Build(3))
	perIter := (three - one) / 2
	if perIter == 0 {
		perIter = 1
	}
	init := int64(one) - int64(perIter)
	if init < 0 {
		init = 0
	}
	scale := int64(1)
	if insts > uint64(init) {
		scale = (int64(insts) - init + int64(perIter) - 1) / int64(perIter)
	}
	if scale < 1 {
		scale = 1
	}
	p := bm.Build(scale)
	progCache.Store(key, p)
	return p
}

func instCount(p *isa.Program) uint64 {
	m := emu.New(p)
	n, err := m.Run(0)
	if err != nil {
		panic(fmt.Sprintf("workload: calibration run faulted: %v", err))
	}
	return n
}

// Checksum runs the benchmark functionally at the given scale and returns
// its OUT checksum (self-check for tests and docs).
func (bm Benchmark) Checksum(scale int64) uint64 {
	m := emu.New(bm.Build(scale))
	if _, err := m.Run(0); err != nil {
		panic(fmt.Sprintf("workload: %s faulted: %v", bm.Name, err))
	}
	return m.OutHash
}
