// Package workloads provides the MiniPy benchmark suite — ports of
// pyperformance-style kernels covering the workload classes the paper's
// characterization needs: numeric loop kernels, recursion/call-heavy code,
// object-graph workloads, and string/dict churn. Every benchmark defines a
// run() function that executes one measured iteration and returns a
// checksum, so engines can be cross-validated.
package workloads

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/minipy"
)

// Class is a broad workload category used in the suite-overview table.
type Class string

// Workload classes.
const (
	ClassNumeric Class = "numeric"
	ClassCall    Class = "call"
	ClassObject  Class = "object"
	ClassString  Class = "string"
	ClassDict    Class = "dict"
	ClassMixed   Class = "mixed"
)

// Benchmark is one suite entry.
type Benchmark struct {
	Name        string
	Description string
	Class       Class
	Source      string
	// Checksum is the expected repr() of run()'s return value; empty means
	// unchecked (e.g. float-returning benchmarks validated by cross-engine
	// agreement instead).
	Checksum string
}

// Compile compiles, bytecode-verifies, and statically analyzes the
// benchmark source, caching nothing (callers cache). Every compile path —
// CLI, harness, supervised fault-injection recompiles, generated workloads —
// funnels through here or through CodeCache, which share checked, so a
// miscompiled or statically-broken program surfaces as a positioned
// per-benchmark error, never a VM fault at a distance.
func (b Benchmark) Compile() (*minipy.Code, error) {
	rep, err := b.checked()
	if err != nil {
		return nil, err
	}
	return rep.Facts().Module, nil
}

// checked runs the front end once (Analyze) and rejects the program
// exactly as analysis.Check does.
func (b Benchmark) checked() (*analysis.Report, error) {
	rep, err := b.Analyze()
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	return rep, nil
}

// Analyze compiles the benchmark and runs the full static-analysis report
// (CFG, definite assignment, type inference, liveness, determinism audit).
func (b Benchmark) Analyze() (*analysis.Report, error) {
	code, err := minipy.CompileSource(b.Source)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	rep, err := analysis.Analyze(code)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	return rep, nil
}

// ByName returns the benchmark with the given name, searching the
// canonical suite first and then the extended set.
func ByName(name string) (Benchmark, bool) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, true
		}
	}
	for _, b := range Extended() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Suite returns the full benchmark suite in canonical order.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "fib", Checksum: "1597", Class: ClassCall,
			Description: "naive recursive Fibonacci; call-dominated", Source: srcFib},
		{Name: "nbody", Checksum: "-0.16928356282345938", Class: ClassNumeric,
			Description: "planetary n-body simulation step; float loop kernel", Source: srcNBody},
		{Name: "fannkuch", Checksum: "17916", Class: ClassNumeric,
			Description: "fannkuch-redux permutation flipping; int/list kernel", Source: srcFannkuch},
		{Name: "spectralnorm", Checksum: "1.2732291638579598", Class: ClassNumeric,
			Description: "spectral norm power iteration; nested float loops", Source: srcSpectralNorm},
		{Name: "mandelbrot", Checksum: "11787", Class: ClassNumeric,
			Description: "mandelbrot escape iteration; float + irregular branches", Source: srcMandelbrot},
		{Name: "matmul", Checksum: "35.986828", Class: ClassNumeric,
			Description: "dense matrix multiply on nested lists", Source: srcMatmul},
		{Name: "collatz", Checksum: "20114", Class: ClassNumeric,
			Description: "Collatz chain lengths; branchy integer loop", Source: srcCollatz},
		{Name: "quicksort", Checksum: "589301", Class: ClassCall,
			Description: "recursive quicksort of pseudo-random ints", Source: srcQuicksort},
		{Name: "binarytrees", Checksum: "2018", Class: ClassObject,
			Description: "binary tree allocate/traverse; object allocation churn", Source: srcBinaryTrees},
		{Name: "richards", Checksum: "522", Class: ClassObject,
			Description: "task scheduler with polymorphic dispatch (richards-lite)", Source: srcRichards},
		{Name: "deltablue", Checksum: "99608", Class: ClassObject,
			Description: "one-way constraint propagation chain (deltablue-lite)", Source: srcDeltaBlue},
		{Name: "raytrace", Checksum: "147.26195860813635", Class: ClassObject,
			Description: "sphere ray intersection grid; method-call heavy vectors", Source: srcRaytrace},
		{Name: "strings", Checksum: "51548", Class: ClassString,
			Description: "split/join/replace/case string pipeline", Source: srcStrings},
		{Name: "wordcount", Checksum: "'\\'the\\' 78'", Class: ClassDict,
			Description: "tokenize text and count words in a dict", Source: srcWordcount},
		{Name: "dictstress", Checksum: "301106", Class: ClassDict,
			Description: "dict insert/lookup/delete churn with string keys", Source: srcDictStress},
		{Name: "branchy", Checksum: "8891", Class: ClassMixed,
			Description: "data-dependent unpredictable branches; JIT-guard hostile", Source: srcBranchy},
	}
}

const srcFib = `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def run():
    return fib(17)
`

const srcNBody = `
PI = 3.141592653589793
SOLAR_MASS = 4.0 * PI * PI
DAYS_PER_YEAR = 365.24

def make_bodies():
    sun = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, SOLAR_MASS]
    jupiter = [4.84143144246472090, -1.16032004402742839, -0.103622044471123109,
        0.00166007664274403694 * DAYS_PER_YEAR, 0.00769901118419740425 * DAYS_PER_YEAR,
        -0.0000690460016972063023 * DAYS_PER_YEAR, 0.000954791938424326609 * SOLAR_MASS]
    saturn = [8.34336671824457987, 4.12479856412430479, -0.403523417114321381,
        -0.00276742510726862411 * DAYS_PER_YEAR, 0.00499852801234917238 * DAYS_PER_YEAR,
        0.0000230417297573763929 * DAYS_PER_YEAR, 0.000285885980666130812 * SOLAR_MASS]
    uranus = [12.8943695621391310, -15.1111514016986312, -0.223307578892655734,
        0.00296460137564761618 * DAYS_PER_YEAR, 0.00237847173959480950 * DAYS_PER_YEAR,
        -0.0000296589568540237556 * DAYS_PER_YEAR, 0.0000436624404335156298 * SOLAR_MASS]
    neptune = [15.3796971148509165, -25.9193146099879641, 0.179258772950371181,
        0.00268067772490389322 * DAYS_PER_YEAR, 0.00162824170038242295 * DAYS_PER_YEAR,
        -0.0000951592254519715870 * DAYS_PER_YEAR, 0.0000515138902046611451 * SOLAR_MASS]
    return [sun, jupiter, saturn, uranus, neptune]

def advance(bodies, dt, steps):
    n = len(bodies)
    s = 0
    while s < steps:
        i = 0
        while i < n:
            bi = bodies[i]
            j = i + 1
            while j < n:
                bj = bodies[j]
                dx = bi[0] - bj[0]
                dy = bi[1] - bj[1]
                dz = bi[2] - bj[2]
                d2 = dx * dx + dy * dy + dz * dz
                mag = dt / (d2 * sqrt(d2))
                bm = bj[6] * mag
                am = bi[6] * mag
                bi[3] -= dx * bm
                bi[4] -= dy * bm
                bi[5] -= dz * bm
                bj[3] += dx * am
                bj[4] += dy * am
                bj[5] += dz * am
                j += 1
            i += 1
        i = 0
        while i < n:
            b = bodies[i]
            b[0] += dt * b[3]
            b[1] += dt * b[4]
            b[2] += dt * b[5]
            i += 1
        s += 1

def energy(bodies):
    e = 0.0
    n = len(bodies)
    i = 0
    while i < n:
        bi = bodies[i]
        e += 0.5 * bi[6] * (bi[3] * bi[3] + bi[4] * bi[4] + bi[5] * bi[5])
        j = i + 1
        while j < n:
            bj = bodies[j]
            dx = bi[0] - bj[0]
            dy = bi[1] - bj[1]
            dz = bi[2] - bj[2]
            e -= bi[6] * bj[6] / sqrt(dx * dx + dy * dy + dz * dz)
            j += 1
        i += 1
    return e

def run():
    bodies = make_bodies()
    advance(bodies, 0.01, 30)
    return energy(bodies)
`

const srcFannkuch = `
def fannkuch(n):
    perm1 = []
    for i in range(n):
        perm1.append(i)
    count = [0] * n
    max_flips = 0
    checksum = 0
    perm_count = 0
    r = n
    while True:
        while r != 1:
            count[r - 1] = r
            r -= 1
        if perm1[0] != 0 and perm1[n - 1] != n - 1:
            perm = perm1[:]
            flips = 0
            k = perm[0]
            while k != 0:
                i = 0
                j = k
                while i < j:
                    t = perm[i]
                    perm[i] = perm[j]
                    perm[j] = t
                    i += 1
                    j -= 1
                flips += 1
                k = perm[0]
            if flips > max_flips:
                max_flips = flips
            if perm_count % 2 == 0:
                checksum += flips
            else:
                checksum -= flips
        perm_count += 1
        while True:
            if r == n:
                return checksum * 100 + max_flips
            p0 = perm1[0]
            i = 0
            while i < r:
                perm1[i] = perm1[i + 1]
                i += 1
            perm1[r] = p0
            count[r] -= 1
            if count[r] > 0:
                break
            r += 1

def run():
    return fannkuch(7)
`

const srcSpectralNorm = `
def eval_A(i, j):
    return 1.0 / ((i + j) * (i + j + 1) // 2 + i + 1)

def mul_Av(v, n):
    out = []
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += eval_A(i, j) * v[j]
        out.append(s)
    return out

def mul_Atv(v, n):
    out = []
    for i in range(n):
        s = 0.0
        for j in range(n):
            s += eval_A(j, i) * v[j]
        out.append(s)
    return out

def mul_AtAv(v, n):
    return mul_Atv(mul_Av(v, n), n)

def run():
    n = 14
    u = [1.0] * n
    v = []
    for it in range(6):
        v = mul_AtAv(u, n)
        u = mul_AtAv(v, n)
    vBv = 0.0
    vv = 0.0
    for i in range(n):
        vBv += u[i] * v[i]
        vv += v[i] * v[i]
    return sqrt(vBv / vv)
`

const srcMandelbrot = `
def run():
    size = 24
    limit = 4.0
    max_iter = 40
    total = 0
    for py in range(size):
        ci = 2.0 * py / size - 1.0
        for px in range(size):
            cr = 2.0 * px / size - 1.5
            zr = 0.0
            zi = 0.0
            n = 0
            while n < max_iter:
                zr2 = zr * zr
                zi2 = zi * zi
                if zr2 + zi2 > limit:
                    break
                zi = 2.0 * zr * zi + ci
                zr = zr2 - zi2 + cr
                n += 1
            total += n
    return total
`

const srcMatmul = `
def make_matrix(n, seed):
    m = []
    s = seed
    for i in range(n):
        row = []
        for j in range(n):
            s = (s * 1103515245 + 12345) % 2147483648
            row.append(float(s % 1000) / 1000.0)
        m.append(row)
    return m

def matmul(a, b, n):
    out = []
    for i in range(n):
        arow = a[i]
        row = []
        for j in range(n):
            s = 0.0
            for k in range(n):
                s += arow[k] * b[k][j]
            row.append(s)
        out.append(row)
    return out

def run():
    n = 12
    a = make_matrix(n, 42)
    b = make_matrix(n, 1234)
    c = matmul(a, b, n)
    total = 0.0
    for i in range(n):
        total += c[i][i]
    return total
`

const srcCollatz = `
def chain_length(n):
    steps = 0
    while n != 1:
        if n % 2 == 0:
            n = n // 2
        else:
            n = 3 * n + 1
        steps += 1
    return steps

def run():
    total = 0
    for i in range(2, 400):
        total += chain_length(i)
    return total
`

const srcQuicksort = `
def quicksort(xs):
    if len(xs) < 2:
        return xs
    pivot = xs[0]
    less = []
    more = []
    for v in xs[1:]:
        if v < pivot:
            less.append(v)
        else:
            more.append(v)
    return quicksort(less) + [pivot] + quicksort(more)

def run():
    seed = 987654321
    vals = []
    for i in range(250):
        seed = (seed * 1103515245 + 12345) % 2147483648
        vals.append(seed % 1000)
    out = quicksort(vals)
    return out[0] + out[124] * 1000 + out[249] * 100
`

const srcBinaryTrees = `
class Node:
    def __init__(self, left, right):
        self.left = left
        self.right = right

def make_tree(depth):
    if depth == 0:
        return Node(None, None)
    return Node(make_tree(depth - 1), make_tree(depth - 1))

def run():
    total = 0
    for depth in range(4, 8):
        iterations = 2 ** (8 - depth)
        for i in range(iterations):
            total += count(make_tree(depth))
    return total

def count(node):
    if node.left == None:
        return 1
    return 1 + count(node.left) + count(node.right)
`

const srcRichards = `
IDLE = 0
WORKER = 1
HANDLER = 2

class Packet:
    def __init__(self, kind, payload):
        self.kind = kind
        self.payload = payload

class Task:
    def __init__(self, ident):
        self.ident = ident
        self.queue = []
        self.work_done = 0
    def take(self, packet):
        self.queue.append(packet)
    def step(self, system):
        return 0

class IdleTask(Task):
    def step(self, system):
        self.work_done += 1
        if self.work_done % 3 == 0:
            system.dispatch(Packet(WORKER, self.work_done))
        return 1

class WorkerTask(Task):
    def step(self, system):
        if len(self.queue) == 0:
            return 0
        packet = self.queue.pop(0)
        self.work_done += packet.payload % 7
        system.dispatch(Packet(HANDLER, packet.payload + 1))
        return 1

class HandlerTask(Task):
    def step(self, system):
        if len(self.queue) == 0:
            return 0
        packet = self.queue.pop(0)
        self.work_done += packet.payload % 5
        return 1

class System:
    def __init__(self):
        self.tasks = [IdleTask(IDLE), WorkerTask(WORKER), HandlerTask(HANDLER)]
        self.steps = 0
    def dispatch(self, packet):
        self.tasks[packet.kind].take(packet)
    def schedule(self, rounds):
        for r in range(rounds):
            for t in self.tasks:
                self.steps += t.step(self)

def run():
    system = System()
    system.schedule(120)
    total = system.steps
    for t in system.tasks:
        total += t.work_done
    return total
`

const srcDeltaBlue = `
class Variable:
    def __init__(self, value):
        self.value = value
        self.stay = False

class ScaleConstraint:
    def __init__(self, src, dst, scale, offset):
        self.src = src
        self.dst = dst
        self.scale = scale
        self.offset = offset
    def execute(self):
        self.dst.value = self.src.value * self.scale + self.offset

class EqualityConstraint:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst
    def execute(self):
        self.dst.value = self.src.value

def build_chain(n):
    first = Variable(1)
    prev = first
    constraints = []
    for i in range(n):
        v = Variable(0)
        if i % 2 == 0:
            constraints.append(ScaleConstraint(prev, v, 2, 1))
        else:
            constraints.append(EqualityConstraint(prev, v))
        prev = v
    return first, prev, constraints

def propagate(constraints):
    for c in constraints:
        c.execute()

def run():
    first, last, constraints = build_chain(24)
    total = 0
    for round in range(20):
        first.value = round
        propagate(constraints)
        total += last.value % 10007
    return total
`

const srcRaytrace = `
class Vec:
    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z
    def sub(self, o):
        return Vec(self.x - o.x, self.y - o.y, self.z - o.z)
    def dot(self, o):
        return self.x * o.x + self.y * o.y + self.z * o.z
    def scale(self, k):
        return Vec(self.x * k, self.y * k, self.z * k)

class Sphere:
    def __init__(self, center, radius):
        self.center = center
        self.radius = radius
    def intersect(self, origin, direction):
        oc = origin.sub(self.center)
        b = 2.0 * oc.dot(direction)
        c = oc.dot(oc) - self.radius * self.radius
        disc = b * b - 4.0 * c
        if disc < 0:
            return -1.0
        t = (0.0 - b - sqrt(disc)) / 2.0
        if t < 0:
            return -1.0
        return t

def run():
    spheres = [
        Sphere(Vec(0.0, 0.0, -5.0), 1.0),
        Sphere(Vec(2.0, 1.0, -6.0), 1.5),
        Sphere(Vec(-2.0, -1.0, -4.0), 0.8),
    ]
    origin = Vec(0.0, 0.0, 0.0)
    hits = 0
    depth_sum = 0.0
    size = 14
    for py in range(size):
        for px in range(size):
            dx = 2.0 * px / size - 1.0
            dy = 2.0 * py / size - 1.0
            norm = sqrt(dx * dx + dy * dy + 1.0)
            direction = Vec(dx / norm, dy / norm, -1.0 / norm)
            best = -1.0
            for s in spheres:
                t = s.intersect(origin, direction)
                if t > 0 and (best < 0 or t < best):
                    best = t
            if best > 0:
                hits += 1
                depth_sum += best
    return depth_sum + hits
`

const srcStrings = `
def pipeline(n, salt):
    words = []
    for i in range(n):
        words.append('token' + str((i + salt) % 17))
    text = ' '.join(words)
    text = text.replace('token3', 'SUBST')
    upper = text.upper()
    parts = upper.split(' ')
    total = 0
    for p in parts:
        total += len(p)
        if p.startswith('SUB'):
            total += 10
        if p.endswith('7'):
            total += 3
    rejoined = '-'.join(parts)
    return total * 10 + len(rejoined) % 10 + text.find('SUBST')

def run():
    total = 0
    for round in range(6):
        total += pipeline(120, round)
    return total
`

const srcWordcount = `
def run():
    words = ['the', 'quick', 'brown', 'fox', 'jumps', 'over', 'the', 'lazy', 'dog', 'and', 'the', 'cat']
    counts = {}
    for round in range(40):
        for w in words:
            key = w
            if round % 3 == 0:
                key = w.upper()
            if key in counts:
                counts[key] += 1
            else:
                counts[key] = 1
    best = ''
    best_n = 0
    for k in counts:
        if counts[k] > best_n:
            best_n = counts[k]
            best = k
    return repr(best) + ' ' + str(best_n)
`

const srcDictStress = `
def run():
    d = {}
    total = 0
    for i in range(350):
        d['key' + str(i)] = i * 3
    for i in range(700):
        k = 'key' + str(i % 420)
        if k in d:
            total += d[k]
    for i in range(0, 350, 3):
        del d['key' + str(i)]
    for k in d:
        total += d[k] % 7
    return total
`

const srcBranchy = `
def run():
    seed = 123456789
    total = 0
    for i in range(1500):
        seed = (seed * 1103515245 + 12345) % 2147483648
        r = seed % 8
        if r == 0:
            total += 3
        elif r == 1:
            total -= 1
        elif r == 2:
            total += i % 5
        elif r == 3:
            total += 7
        elif r == 4:
            total -= i % 3
        elif r == 5:
            total += 11
        elif r == 6:
            total -= 2
        else:
            total += 1
        if seed % 13 == 0:
            total += seed % 97
    return total
`
