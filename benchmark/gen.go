package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// columns is the schema of the generated table R(A, B, C): A is the key
// attribute, B a per-row attribute, and C depends functionally on A (the
// paper's Employee -> Address shape), so DECOMPOSE R INTO S(A,B), T(A,C)
// is lossless.
var columns = []string{"A", "B", "C"}

// dataset is one generated instance of R together with the generator's
// own model of it: the counts and hash the workloads verify answers
// against. Nothing in it is derived from the engine.
type dataset struct {
	rows      [][]string // released by the workloads that must not count them in heap_mb
	nrows     int        // len(rows) as generated: the model's row count, valid after rows is released
	nB        int        // candidate B values, nrows/10+1; INSERT and UPDATE draw B from the same range
	keys      int
	perKey    []int          // rows per key index
	perC      map[string]int // rows per C value
	cValues   []string       // the C values that occur, in first-seen order
	hash      uint64         // order-independent content hash of rows
	userBytes uint64         // sum of the value lengths of every row
}

func keyName(k int) string { return fmt.Sprintf("k%07d", k) }

// genData makes nrows tuples over exactly keys distinct A values, every
// key on the same number of rows (nrows/keys, give or take one) at
// shuffled positions, and every C value on the same number of keys. The
// cost of a point read or of a join under C = c then does not depend on
// which key or value the seed made hot, so medians compare across seeds.
// B has nrows/10+1 candidate values and C keys/10 values.
func genData(seed int64, nrows, keys int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	nB, nC := nrows/10+1, max(keys/10, 1)
	cOf := rng.Perm(keys) // key index -> C index, after the modulo below
	keyOf := rng.Perm(nrows)
	d := &dataset{
		rows:   make([][]string, nrows),
		nrows:  nrows,
		nB:     nB,
		keys:   keys,
		perKey: make([]int, keys),
		perC:   make(map[string]int),
	}
	for i := range d.rows {
		k := keyOf[i] % keys
		row := []string{keyName(k), fmt.Sprintf("b%07d", rng.Intn(nB)), fmt.Sprintf("c%07d", cOf[k]%nC)}
		d.rows[i] = row
		d.perKey[k]++
		if d.perC[row[2]] == 0 {
			d.cValues = append(d.cValues, row[2])
		}
		d.perC[row[2]]++
		d.hash += rowHash(row)
		d.userBytes += rowBytes(row)
	}
	return d
}

// rowHash hashes one tuple; table hashes are the wrapping sum of their
// row hashes, so they do not depend on row order.
func rowHash(row []string) uint64 {
	h := fnv.New64a()
	for _, v := range row {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func rowBytes(row []string) uint64 {
	var n uint64
	for _, v := range row {
		n += uint64(len(v))
	}
	return n
}

func hashRows(rows [][]string) uint64 {
	var sum uint64
	for _, r := range rows {
		sum += rowHash(r)
	}
	return sum
}

// keyChooser picks point-read keys with a zipf(1.2) law over the key
// space, so a few hot keys repeat and the long tail is still visited.
type keyChooser struct {
	zipf *rand.Zipf
}

func newKeyChooser(rng *rand.Rand, keys int) keyChooser {
	return keyChooser{zipf: rand.NewZipf(rng, 1.2, 1, uint64(keys-1))}
}

func (c keyChooser) next() int { return int(c.zipf.Uint64()) }

// DML statement kinds, which are also the operation classes the writes
// are timed under: an INSERT is some fifty times cheaper than a keyed
// UPDATE or DELETE, and one class over all three would put its median on
// the edge between the two modes. The stream cycles insert, update,
// insert, delete: 2:1:1.
const (
	kindInsert = "insert"
	kindUpdate = "update"
	kindDelete = "delete"
)

// dmlStmt is one keyed DML statement plus the fields the model needs to
// apply it.
type dmlStmt struct {
	kind, key, b, c string
	text            string
}

// dmlGen streams keyed DML against table: INSERT of a fresh key
// "n<prefix>-…", UPDATE of B on an existing generated key, DELETE of one
// of its own live inserts. Each client owns a prefix, so key ranges are
// disjoint and a DELETE always removes exactly one row. New keys carry
// one C value each, so the FD A -> C keeps holding.
type dmlGen struct {
	rng    *rand.Rand
	table  string
	prefix string
	data   *dataset
	i      int
	live   []string
}

func newDMLGen(seed int64, table, prefix string, data *dataset) *dmlGen {
	return &dmlGen{rng: rand.New(rand.NewSource(seed)), table: table, prefix: prefix, data: data}
}

func (g *dmlGen) next() dmlStmt {
	i := g.i
	g.i++
	nB := g.data.nB
	switch i % 4 {
	case 1:
		s := dmlStmt{kind: kindUpdate, key: keyName(g.rng.Intn(g.data.keys)), b: fmt.Sprintf("b%07d", g.rng.Intn(nB))}
		s.text = fmt.Sprintf("UPDATE %s SET B = '%s' WHERE A = '%s'", g.table, s.b, s.key)
		return s
	case 3:
		j := g.rng.Intn(len(g.live))
		s := dmlStmt{kind: kindDelete, key: g.live[j]}
		g.live[j] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		s.text = fmt.Sprintf("DELETE FROM %s WHERE A = '%s'", g.table, s.key)
		return s
	default:
		s := dmlStmt{
			kind: kindInsert,
			key:  fmt.Sprintf("n%s-%07d", g.prefix, i),
			b:    fmt.Sprintf("b%07d", g.rng.Intn(nB)),
			c:    g.data.cValues[g.rng.Intn(len(g.data.cValues))],
		}
		g.live = append(g.live, s.key)
		s.text = fmt.Sprintf("INSERT INTO %s VALUES ('%s', '%s', '%s')", g.table, s.key, s.b, s.c)
		return s
	}
}

// model is the generator's own account of what a table must hold after
// a sequence of acknowledged DML statements on top of a dataset.
type model struct {
	data *dataset
	bOf  map[string]string    // generated key -> B set by its last acknowledged UPDATE
	live map[string][2]string // acknowledged, undeleted inserted key -> (B, C)
	gone map[string]bool      // keys of acknowledged DELETEs
}

func newModel(data *dataset) *model {
	return &model{data: data, bOf: map[string]string{}, live: map[string][2]string{}, gone: map[string]bool{}}
}

func (m *model) apply(s dmlStmt) {
	switch s.kind {
	case kindInsert:
		m.live[s.key] = [2]string{s.b, s.c}
	case kindUpdate:
		m.bOf[s.key] = s.b
	case kindDelete:
		delete(m.live, s.key)
		m.gone[s.key] = true
	}
}

// expected returns the row count, content hash and user bytes the table
// must have.
func (m *model) expected() (rows int, hash, userBytes uint64) {
	for _, r := range m.data.rows {
		if b, ok := m.bOf[r[0]]; ok {
			r = []string{r[0], b, r[2]}
		}
		hash += rowHash(r)
		userBytes += rowBytes(r)
	}
	for k, bc := range m.live {
		r := []string{k, bc[0], bc[1]}
		hash += rowHash(r)
		userBytes += rowBytes(r)
	}
	return len(m.data.rows) + len(m.live), hash, userBytes
}

// verify checks a full dump of the table against the model: every
// acknowledged insert present with its values, every acknowledged delete
// absent, every updated key carrying its last B, and the whole content
// equal by count and hash. It returns how many facts it checked and how
// many were wrong.
func (m *model) verify(rows [][]string) (checked, wrong int) {
	byKey := make(map[string][][]string, m.data.keys+len(m.live))
	for _, r := range rows {
		byKey[r[0]] = append(byKey[r[0]], r)
	}
	for k, b := range m.bOf {
		checked++
		for _, r := range byKey[k] {
			if r[1] != b {
				wrong++
				break
			}
		}
	}
	for k, bc := range m.live {
		checked++
		if got := byKey[k]; len(got) != 1 || got[0][1] != bc[0] || got[0][2] != bc[1] {
			wrong++
		}
	}
	for k := range m.gone {
		checked++
		if len(byKey[k]) != 0 {
			wrong++
		}
	}
	checked++
	if n, hash, _ := m.expected(); n != len(rows) || hash != hashRows(rows) {
		wrong++
	}
	return checked, wrong
}
