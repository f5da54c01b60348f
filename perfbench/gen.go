package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/dataset"
)

// Corpus parameters shared by every workload: the 100k settings of the
// repository's scale tests (`ergen -dup 0.3 -vocab 50000`).
const (
	duplicateRate = 0.3
	vocabSize     = 50000
)

// corpus is a generated labeled record set: text and entity label per
// record, with the external ID recID(i).
type corpus struct {
	texts    []string
	entities []string
}

func (c *corpus) len() int { return len(c.texts) }

func recID(i int) string { return fmt.Sprintf("r%06d", i) }

// genDataset generates the synthetic corpus for a seed.
func genDataset(seed int64, records int) *dataset.Dataset {
	return dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed:          seed,
		Records:       records,
		DuplicateRate: duplicateRate,
		VocabSize:     vocabSize,
		Name:          "perfbench",
	})
}

func genCorpus(seed int64, records int) *corpus {
	d := genDataset(seed, records)
	c := &corpus{texts: make([]string, d.NumRecords()), entities: make([]string, d.NumRecords())}
	for i, r := range d.Records {
		c.texts[i] = r.Text
		c.entities[i] = "e" + strconv.Itoa(r.EntityID)
	}
	return c
}

// mutation is one step of a stream trace: an upsert of text under the
// record's entity label, or a delete.
type mutation struct {
	idx    int
	delete bool
	text   string
}

// mutator generates the seeded mutation mix of `ergen -mutations`: half
// text revisions of a live record (a fresh revision token appended, so the
// record's terms and candidate pairs change), a quarter deletions, a
// quarter re-insertions of the most recently deleted record at its
// original text. Equal seeds give equal sequences.
type mutator struct {
	c       *corpus
	rng     *rand.Rand
	live    []int
	deleted []int
	rev     map[int]int
}

func newMutator(c *corpus, seed int64) *mutator {
	live := make([]int, c.len())
	for i := range live {
		live[i] = i
	}
	return &mutator{c: c, rng: rand.New(rand.NewSource(seed)), live: live, rev: make(map[int]int)}
}

func (m *mutator) next() mutation {
	for {
		switch r := m.rng.Intn(4); {
		case r < 2 && len(m.live) > 0:
			i := m.live[m.rng.Intn(len(m.live))]
			m.rev[i]++
			return mutation{idx: i, text: revised(m.c.texts[i], m.rev[i])}
		case r == 2 && len(m.live) > 1:
			k := m.rng.Intn(len(m.live))
			i := m.live[k]
			m.live[k] = m.live[len(m.live)-1]
			m.live = m.live[:len(m.live)-1]
			m.deleted = append(m.deleted, i)
			return mutation{idx: i, delete: true}
		case len(m.deleted) > 0:
			i := m.deleted[len(m.deleted)-1]
			m.deleted = m.deleted[:len(m.deleted)-1]
			m.live = append(m.live, i)
			delete(m.rev, i)
			return mutation{idx: i, text: m.c.texts[i]}
		}
		// No eligible target for this draw; draw again.
	}
}

func revised(text string, rev int) string { return text + " rev" + strconv.Itoa(rev) }

// putStream is one serve client's seeded overwrite sequence over the record
// indexes it owns (idx ≡ client mod clients), so clients never write the
// same ID and the last acknowledged text of every ID is known.
type putStream struct {
	rng            *rand.Rand
	client, stride int
	n              int
	rev            map[int]int
}

func newPutStream(seed int64, client, clients, n int) *putStream {
	return &putStream{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		client: client, stride: clients, n: n,
		rev: make(map[int]int),
	}
}

// next returns the record index to overwrite and its revision number.
func (p *putStream) next() (idx, rev int) {
	owned := (p.n - p.client + p.stride - 1) / p.stride
	idx = p.client + p.stride*p.rng.Intn(owned)
	p.rev[idx]++
	return idx, p.rev[idx]
}
