// Package workloads holds the benchmark kernels the experiment harness
// runs. The MICRO 2003 evaluation used SPEC2000 and Mediabench codes; SPEC
// sources and inputs cannot be redistributed, so each kernel here
// reproduces the dominant loop and memory structure of its counterpart in
// wsl, generating its own deterministic input data (documented per kernel).
// Every kernel returns a checksum that the AST evaluator, the linear
// emulator and every engine of the harness's differential table must agree
// on.
package workloads

// Workload is one benchmark kernel.
type Workload struct {
	Name        string
	Mirrors     string // the paper-suite benchmark this kernel stands in for
	Description string
	Src         string
}

// ByName returns the named workload, or nil. Names of the form
// "gen:family:seed[:size]" resolve to generated corpus programs,
// synthesized on demand (see gen.go); they are not part of Names().
func ByName(name string) *Workload {
	for i := range All {
		if All[i].Name == name {
			return &All[i]
		}
	}
	if len(name) > 4 && name[:4] == "gen:" {
		return synthesize(name)
	}
	return nil
}

// Names lists all workload names in order.
func Names() []string {
	out := make([]string, len(All))
	for i := range All {
		out[i] = All[i].Name
	}
	return out
}

// All is the benchmark suite, ordered as reported in EXPERIMENTS.md.
var All = []Workload{
	{
		Name:        "adpcm",
		Mirrors:     "Mediabench adpcm (rawdaudio)",
		Description: "IMA ADPCM decoder over a synthetic 2048-nibble stream: serial integer loop with a data-dependent step-size table walk.",
		Src: `
global stepTable[89] = {7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28,
	31, 34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143,
	157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544,
	598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878,
	2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
	6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818,
	18500, 20350, 22385, 24623, 27086, 29794, 32767};
global indexTable[16] = {-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8};
global out[2048];

func main() {
	var pred = 0;
	var index = 0;
	var rng = 7;
	var sum = 0;
	for var i = 0; i < 2048; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		var code = rng % 16;
		var step = stepTable[index];
		var diff = step >> 3;
		if code & 4 { diff = diff + step; }
		if code & 2 { diff = diff + (step >> 1); }
		if code & 1 { diff = diff + (step >> 2); }
		if code & 8 { pred = pred - diff; } else { pred = pred + diff; }
		if pred > 32767 { pred = 32767; }
		if pred < -32768 { pred = -32768; }
		index = index + indexTable[code];
		if index < 0 { index = 0; }
		if index > 88 { index = 88; }
		out[i] = pred;
		sum = (sum + pred) & 0xFFFFFFF;
	}
	return sum;
}`,
	},
	{
		Name:        "mpeg2",
		Mirrors:     "Mediabench mpeg2 (encode DCT)",
		Description: "Integer 8x8 separable DCT-like transform plus quantization over 12 blocks: dense block compute with regular strides.",
		Src: `
global blocks[768];
global tmp[64];
global coef[64];
global quant[64];

func main() {
	var rng = 3;
	for var i = 0; i < 768; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		blocks[i] = rng % 256 - 128;
	}
	for var i = 0; i < 64; i = i + 1 {
		quant[i] = 8 + (i / 8) + (i % 8);
	}
	var sum = 0;
	for var b = 0; b < 12; b = b + 1 {
		var base = b * 64;
		// Row pass: butterfly-style accumulation.
		for var r = 0; r < 8; r = r + 1 {
			for var c = 0; c < 8; c = c + 1 {
				var acc = 0;
				for var k = 0; k < 8; k = k + 1 {
					var w = (c * (2 * k + 1)) % 16;
					if w > 8 { w = 16 - w; }
					acc = acc + blocks[base + r * 8 + k] * (8 - w);
				}
				tmp[r * 8 + c] = acc >> 3;
			}
		}
		// Column pass.
		for var c = 0; c < 8; c = c + 1 {
			for var r = 0; r < 8; r = r + 1 {
				var acc = 0;
				for var k = 0; k < 8; k = k + 1 {
					var w = (r * (2 * k + 1)) % 16;
					if w > 8 { w = 16 - w; }
					acc = acc + tmp[k * 8 + c] * (8 - w);
				}
				coef[r * 8 + c] = acc >> 3;
			}
		}
		// Quantize and accumulate.
		for var i = 0; i < 64; i = i + 1 {
			var q = coef[i] / quant[i];
			sum = (sum * 31 + q) % 1000000007;
		}
	}
	return sum;
}`,
	},
	{
		Name:        "gzip",
		Mirrors:     "SPECint gzip",
		Description: "LZ77-style longest-match search with a hash-head table over a 2048-byte synthetic text: branchy byte comparisons and irregular access.",
		Src: `
global text[2048];
global head[256];
global matchLen[2048];

func main() {
	var rng = 11;
	for var i = 0; i < 2048; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		// Low-entropy text so matches exist.
		text[i] = (rng % 16) + (i % 8);
	}
	for var i = 0; i < 256; i = i + 1 { head[i] = -1; }
	var sum = 0;
	for var pos = 0; pos < 2040; pos = pos + 1 {
		var h = (text[pos] * 31 + text[pos + 1]) % 256;
		var cand = head[h];
		var best = 0;
		var tries = 0;
		while cand >= 0 && tries < 8 {
			var len = 0;
			while len < 8 && pos + len < 2048 && text[cand + len] == text[pos + len] {
				len = len + 1;
			}
			if len > best { best = len; }
			cand = cand - 17;
			if cand < 0 { cand = -1; }
			tries = tries + 1;
		}
		matchLen[pos] = best;
		head[h] = pos;
		sum = (sum + best * pos) % 1000000007;
	}
	return sum;
}`,
	},
	{
		Name:        "mcf",
		Mirrors:     "SPECint mcf",
		Description: "Network-simplex-like relaxation over a 256-node graph stored as index-linked lists: pointer chasing with unpredictable branches.",
		Src: `
global nextArc[1024];
global arcHead[1024];
global arcCost[1024];
global firstArc[256];
global dist[256];

func main() {
	var rng = 5;
	// Build a random graph: 4 arcs per node, threaded as linked lists.
	for var n = 0; n < 256; n = n + 1 {
		firstArc[n] = n * 4;
		dist[n] = 1000000;
	}
	for var a = 0; a < 1024; a = a + 1 {
		rng = (rng * 48271) % 2147483647;
		arcHead[a] = rng % 256;
		rng = (rng * 48271) % 2147483647;
		arcCost[a] = rng % 100 + 1;
		if a % 4 == 3 { nextArc[a] = -1; } else { nextArc[a] = a + 1; }
	}
	dist[0] = 0;
	var sum = 0;
	// Bellman-Ford-style sweeps.
	for var round = 0; round < 12; round = round + 1 {
		var changed = 0;
		for var n = 0; n < 256; n = n + 1 {
			var d = dist[n];
			if d < 1000000 {
				var a = firstArc[n];
				while a >= 0 {
					var h = arcHead[a];
					var nd = d + arcCost[a];
					if nd < dist[h] {
						dist[h] = nd;
						changed = changed + 1;
					}
					a = nextArc[a];
				}
			}
		}
		sum = sum + changed;
		if changed == 0 { break; }
	}
	for var n = 0; n < 256; n = n + 1 {
		sum = (sum * 31 + dist[n]) % 1000000007;
	}
	return sum;
}`,
	},
	{
		Name:        "twolf",
		Mirrors:     "SPECint twolf",
		Description: "Simulated-annealing cell swap evaluation: 1200 random swaps over a 128-cell placement, each scored by wirelength deltas over the cells' incident-net lists.",
		Src: `
global cellX[128];
global cellY[128];
global netA[256];
global netB[256];
global incident[1024];

func wirelen(n) {
	var a = netA[n];
	var b = netB[n];
	var dx = cellX[a] - cellX[b];
	var dy = cellY[a] - cellY[b];
	if dx < 0 { dx = -dx; }
	if dy < 0 { dy = -dy; }
	return dx + dy;
}

func touchingCost(cell) {
	var total = 0;
	for var k = 0; k < 8; k = k + 1 {
		total = total + wirelen(incident[cell * 8 + k]);
	}
	return total;
}

func main() {
	var rng = 13;
	for var i = 0; i < 128; i = i + 1 {
		cellX[i] = i % 16;
		cellY[i] = i / 16;
	}
	for var n = 0; n < 256; n = n + 1 {
		rng = (rng * 48271) % 2147483647;
		netA[n] = rng % 128;
		rng = (rng * 48271) % 2147483647;
		netB[n] = rng % 128;
	}
	// Each cell keeps an 8-entry incident-net list (approximate: random
	// nets, the way twolf's data structures bound the scan per move).
	for var i = 0; i < 1024; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		incident[i] = rng % 256;
	}
	var cost = 0;
	for var n = 0; n < 256; n = n + 1 { cost = cost + wirelen(n); }
	var accepted = 0;
	var temp = 64;
	for var step = 0; step < 1200; step = step + 1 {
		rng = (rng * 48271) % 2147483647;
		var a = rng % 128;
		rng = (rng * 48271) % 2147483647;
		var b = rng % 128;
		var before = touchingCost(a) + touchingCost(b);
		var tx = cellX[a]; var ty = cellY[a];
		cellX[a] = cellX[b]; cellY[a] = cellY[b];
		cellX[b] = tx; cellY[b] = ty;
		var after = touchingCost(a) + touchingCost(b);
		var delta = after - before;
		rng = (rng * 48271) % 2147483647;
		if delta < 0 || (temp > 0 && rng % 256 < temp) {
			cost = cost + delta;
			accepted = accepted + 1;
		} else {
			// Reject: swap back.
			tx = cellX[a]; ty = cellY[a];
			cellX[a] = cellX[b]; cellY[a] = cellY[b];
			cellX[b] = tx; cellY[b] = ty;
		}
		if step % 100 == 99 { temp = temp * 7 / 8; }
	}
	return (cost * 4096 + accepted) % 1000000007;
}`,
	},
	{
		Name:        "art",
		Mirrors:     "SPECfp art (integerized)",
		Description: "Adaptive-resonance F1/F2 layers: dense 64x24 weight products with winner-take-all and weight update, fixed-point arithmetic.",
		Src: `
global weights[1536];
global input[64];
global activation[24];

func main() {
	var rng = 17;
	for var i = 0; i < 1536; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		weights[i] = rng % 1024;
	}
	var sum = 0;
	for var pass = 0; pass < 24; pass = pass + 1 {
		rng = (rng * 48271) % 2147483647;
		for var i = 0; i < 64; i = i + 1 {
			rng = (rng * 48271) % 2147483647;
			input[i] = rng % 1024;
		}
		// F2 activation: dense matrix-vector product.
		for var j = 0; j < 24; j = j + 1 {
			var acc = 0;
			for var i = 0; i < 64; i = i + 1 {
				acc = acc + weights[j * 64 + i] * input[i];
			}
			activation[j] = acc >> 10;
		}
		// Winner take all.
		var winner = 0;
		for var j = 1; j < 24; j = j + 1 {
			if activation[j] > activation[winner] { winner = j; }
		}
		// Resonance: move the winner's weights toward the input.
		for var i = 0; i < 64; i = i + 1 {
			var w = weights[winner * 64 + i];
			weights[winner * 64 + i] = w + ((input[i] - w) >> 2);
		}
		sum = (sum * 31 + winner + activation[winner]) % 1000000007;
	}
	return sum;
}`,
	},
	{
		Name:        "equake",
		Mirrors:     "SPECfp equake (integerized)",
		Description: "Sparse matrix-vector time stepping: CSR matrix of 256 rows x ~6 nonzeros, 16 timesteps, fixed-point.",
		Src: `
global rowStart[257];
global colIdx[1536];
global val[1536];
global x[256];
global y[256];

func main() {
	var rng = 23;
	var nnz = 0;
	for var r = 0; r < 256; r = r + 1 {
		rowStart[r] = nnz;
		// 6 nonzeros per row at pseudo-random columns.
		for var k = 0; k < 6; k = k + 1 {
			rng = (rng * 48271) % 2147483647;
			colIdx[nnz] = rng % 256;
			rng = (rng * 48271) % 2147483647;
			val[nnz] = rng % 64 - 32;
			nnz = nnz + 1;
		}
		x[r] = r + 1;
	}
	rowStart[256] = nnz;
	var sum = 0;
	for var t = 0; t < 16; t = t + 1 {
		for var r = 0; r < 256; r = r + 1 {
			var acc = 0;
			for var k = rowStart[r]; k < rowStart[r + 1]; k = k + 1 {
				acc = acc + val[k] * x[colIdx[k]];
			}
			y[r] = acc >> 5;
		}
		for var r = 0; r < 256; r = r + 1 {
			x[r] = (x[r] + y[r]) % 65536;
		}
		sum = (sum * 31 + x[t * 15 % 256]) % 1000000007;
	}
	return sum;
}`,
	},
	{
		Name:        "ammp",
		Mirrors:     "SPECfp ammp (integerized)",
		Description: "Molecular-dynamics force accumulation: 96 atoms with 8-entry neighbor lists, inverse-square-like integer forces, 10 steps.",
		Src: `
global posX[96];
global posY[96];
global velX[96];
global velY[96];
global neighbors[768];

func main() {
	var rng = 29;
	for var i = 0; i < 96; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		posX[i] = rng % 1000;
		rng = (rng * 48271) % 2147483647;
		posY[i] = rng % 1000;
		velX[i] = 0;
		velY[i] = 0;
	}
	for var i = 0; i < 768; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		neighbors[i] = rng % 96;
	}
	var sum = 0;
	for var step = 0; step < 10; step = step + 1 {
		for var i = 0; i < 96; i = i + 1 {
			var fx = 0;
			var fy = 0;
			for var k = 0; k < 8; k = k + 1 {
				var j = neighbors[i * 8 + k];
				var dx = posX[j] - posX[i];
				var dy = posY[j] - posY[i];
				var d2 = dx * dx + dy * dy + 16;
				fx = fx + dx * 4096 / d2;
				fy = fy + dy * 4096 / d2;
			}
			velX[i] = (velX[i] + fx) % 10000;
			velY[i] = (velY[i] + fy) % 10000;
		}
		for var i = 0; i < 96; i = i + 1 {
			posX[i] = (posX[i] + velX[i] / 16) % 1000;
			posY[i] = (posY[i] + velY[i] / 16) % 1000;
			if posX[i] < 0 { posX[i] = posX[i] + 1000; }
			if posY[i] < 0 { posY[i] = posY[i] + 1000; }
		}
		sum = (sum * 31 + posX[step * 9 % 96] + posY[step * 7 % 96]) % 1000000007;
	}
	return sum;
}`,
	},
	{
		Name:        "fft",
		Mirrors:     "kernel: radix-2 FFT (fixed point)",
		Description: "Iterative 256-point radix-2 butterfly network with a fixed-point twiddle table: the classic strided-access kernel.",
		Src: `
global re[256];
global im[256];
global twR[128];
global twI[128];

func main() {
	var rng = 31;
	for var i = 0; i < 256; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		re[i] = rng % 2048 - 1024;
		im[i] = 0;
	}
	// Quarter-wave-ish integer twiddles (not trig-exact; the kernel's
	// access pattern and dataflow are what matter).
	for var i = 0; i < 128; i = i + 1 {
		twR[i] = 1024 - (i * i * 1024) / 16384;
		twI[i] = -(i * 1024) / 128;
	}
	// Bit reversal.
	for var i = 0; i < 256; i = i + 1 {
		var r = 0;
		var v = i;
		for var b = 0; b < 8; b = b + 1 {
			r = (r << 1) | (v & 1);
			v = v >> 1;
		}
		if r > i {
			var t = re[i]; re[i] = re[r]; re[r] = t;
			t = im[i]; im[i] = im[r]; im[r] = t;
		}
	}
	// Butterflies.
	var len = 2;
	while len <= 256 {
		var half = len / 2;
		var tstep = 128 / half;
		for var start = 0; start < 256; start = start + len {
			for var k = 0; k < half; k = k + 1 {
				var wr = twR[k * tstep];
				var wi = twI[k * tstep];
				var i0 = start + k;
				var i1 = i0 + half;
				var tr = (re[i1] * wr - im[i1] * wi) >> 10;
				var ti = (re[i1] * wi + im[i1] * wr) >> 10;
				re[i1] = re[i0] - tr;
				im[i1] = im[i0] - ti;
				re[i0] = re[i0] + tr;
				im[i0] = im[i0] + ti;
			}
		}
		len = len * 2;
	}
	var sum = 0;
	for var i = 0; i < 256; i = i + 1 {
		sum = (sum * 31 + re[i] + im[i]) % 1000000007;
	}
	return sum;
}`,
	},
	{
		Name:        "lu",
		Mirrors:     "kernel: LU decomposition (integer)",
		Description: "In-place 20x20 integer Gaussian elimination with partial pivoting by magnitude: triangular loop nest with row swaps.",
		Src: `
global a[400];

func main() {
	var rng = 37;
	for var i = 0; i < 400; i = i + 1 {
		rng = (rng * 48271) % 2147483647;
		a[i] = rng % 200 - 100;
	}
	// Boost the diagonal so elimination stays nonzero.
	for var i = 0; i < 20; i = i + 1 {
		a[i * 20 + i] = a[i * 20 + i] + 1000;
	}
	var sum = 0;
	for var k = 0; k < 20; k = k + 1 {
		// Partial pivot by absolute value.
		var piv = k;
		var best = a[k * 20 + k];
		if best < 0 { best = -best; }
		for var r = k + 1; r < 20; r = r + 1 {
			var v = a[r * 20 + k];
			if v < 0 { v = -v; }
			if v > best { best = v; piv = r; }
		}
		if piv != k {
			for var c = 0; c < 20; c = c + 1 {
				var t = a[k * 20 + c];
				a[k * 20 + c] = a[piv * 20 + c];
				a[piv * 20 + c] = t;
			}
		}
		var d = a[k * 20 + k];
		if d == 0 { d = 1; }
		for var r = k + 1; r < 20; r = r + 1 {
			var f = (a[r * 20 + k] * 256) / d;
			for var c = k; c < 20; c = c + 1 {
				a[r * 20 + c] = a[r * 20 + c] - (f * a[k * 20 + c]) / 256;
			}
		}
		sum = (sum * 31 + d) % 1000000007;
	}
	for var i = 0; i < 400; i = i + 1 {
		sum = (sum * 31 + a[i]) % 1000000007;
	}
	return sum;
}`,
	},
}
