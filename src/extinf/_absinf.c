/* The comparisons and hash of extinf's INFINITY, the conversion of a
   search's distance map to weights, two checks of plain graphs, a decoder
   of plain graph documents and the mixing of a block of SplitMix64
   outputs, answered in C.

   weights._Infinity lists AbsInf as its first base, so CPython installs
   these slots on it directly: comparing with INFINITY makes no Python-level
   lookup and runs no Python frame.  INFINITY's binary64 image is +inf.

   An exact int or float operand, or INFINITY itself, is answered with the
   IEEE comparison of binary64 images; an int past binary64 range has the
   image +-inf.  Any other operand gets the comparison the Python fallback in
   weights.py makes: < and >= compare it with -inf, <= and > with
   2**1024 - 2**970, the smallest int whose image is +inf.  So a Fraction,
   Decimal or ExtendedWeight answers through its own reflected method, and a
   non-number raises the TypeError that float or int gives.  == and != also
   take subclasses of int and float by image, and leave the rest to the
   other operand.

   from_search(finite_type, infinity_weight, distances, infinity) is the
   fast path of weights._from_search, whose Python loop holds the rules: a
   value that is infinity itself becomes infinity_weight, and an exact int
   or float whose image is in [0.0, inf) becomes a finite_type instance
   allocated as object.__new__ does, its _value slot filled with the image
   (-0.0 folded to +0.0).  Any other value, or a key that is not an exact
   str, makes it return False with the map untouched, and the Python loop
   converts the map and words the error.

   plain_graph(graph) is True only when graphs.validate(graph) would find
   nothing, and plain_weights(graph) only when emit_graph's weight loop
   would find nothing; False means "look closer", and the Python loop words
   every problem.  Like from_search, both take exact types only (dict, str,
   int, float), so no Python code runs inside them and nothing can change
   under them.

   parse_plain_graph(text) is the fast path of graphs.parse_graph, whose
   json.loads and checks hold the rules.  In one pass over an exact str of
   the 1-byte kind it builds the dict json.loads(text) builds, in the same
   key order and with the same value types: an object of objects whose
   values are unsigned numbers.  Each distinct node id is made once, through
   a per-call open-addressing table keyed by its raw bytes, so every later
   occurrence is the same str, as with json's key memo.  An int of at most
   18 digits is read inline; a token with a fraction or an exponent goes
   through PyOS_string_to_double, as in json.  Anything else returns None,
   "look closer": an escape, a control character, a minus sign, a longer
   int, a non-finite float, NaN or Infinity, other nesting, a duplicate key,
   trailing data, or a target that is not a node.  It needs no plain_graph
   pass: the grammar makes only exact strs, fresh exact dicts, ints of at
   most 18 digits and unsigned finite floats, and since each id is made once
   and no node twice, every target is a node exactly when the table holds
   as many ids as the graph has nodes.  Every exit frees the partial dicts
   and the table; it keeps no state.

   splitmix_block(state) is the fast path of generators._mix_words, which
   holds the rule: the SplitMix64 outputs 1 to BLOCK steps past state as
   native-order 64-bit words, the last output first.  state must be an int in
   [0, 2**64): PyLong_AsUnsignedLongLong raises TypeError for a non-int and
   OverflowError for an int out of range.

   image() is the one place this file computes a binary64 image: the
   comparisons, from_search and plain_graph's weight test all read it.  A
   finite weight's comparisons and every sum live in weights.py.

   Built and loaded by _native.py; stdlib CPython >= 3.10 API only. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#ifndef Py_T_OBJECT_EX /* CPython < 3.12 */
#include <structmember.h>
#define Py_T_OBJECT_EX T_OBJECT_EX
#endif

static PyObject *neg_inf;       /* threshold of < and >= */
static PyObject *rounds_to_inf; /* threshold of <= and > */
static Py_hash_t inf_hash;      /* hash(math.inf) */
static PyTypeObject *finite_type; /* from_search's last finite_type, held */
static Py_ssize_t value_offset;   /* where its _value slot lives */

static PyObject *absinf_richcompare(PyObject *, PyObject *, int);

/* other's binary64 image in *out: 1 if other is an int, a float (exact
   types only when exact is set) or INFINITY, 0 if not, -1 on error.  Inline,
   so that a comparison in the search's loop makes no call for it. */
static inline int
image(PyObject *other, int exact, double *out)
{
    if (exact ? PyFloat_CheckExact(other) : PyFloat_Check(other)) {
        *out = PyFloat_AS_DOUBLE(other);
        return 1;
    }
    if (exact ? PyLong_CheckExact(other) : PyLong_Check(other)) {
        *out = PyLong_AsDouble(other);
        if (*out == -1.0 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError))
                return -1;
            PyErr_Clear();
            int positive = PyObject_RichCompareBool(other, rounds_to_inf, Py_GE);
            if (positive < 0)
                return -1;
            *out = positive ? Py_HUGE_VAL : -Py_HUGE_VAL;
        }
        return 1;
    }
    if (Py_TYPE(other)->tp_richcompare == absinf_richcompare) {
        *out = Py_HUGE_VAL;
        return 1;
    }
    return 0;
}

static PyObject *
absinf_richcompare(PyObject *Py_UNUSED(self), PyObject *other, int op)
{
    double value;
    int found = image(other, op != Py_EQ && op != Py_NE, &value);
    if (found < 0)
        return NULL;
    if (found)
        Py_RETURN_RICHCOMPARE(Py_HUGE_VAL, value, op);
    switch (op) {
    case Py_LT:
        return PyObject_RichCompare(neg_inf, other, Py_GT);
    case Py_GE:
        return PyObject_RichCompare(neg_inf, other, Py_LE);
    case Py_LE:
        return PyObject_RichCompare(rounds_to_inf, other, Py_LE);
    case Py_GT:
        return PyObject_RichCompare(rounds_to_inf, other, Py_GT);
    }
    Py_RETURN_NOTIMPLEMENTED;
}

static Py_hash_t
absinf_hash(PyObject *Py_UNUSED(self))
{
    return inf_hash;
}

/* 1 if weight is an exact int or float whose image is in [0.0, inf), 0 if
   not (INFINITY included), -1 on error. */
static int
plain_weight(PyObject *weight)
{
    double value;
    int found = image(weight, 1, &value);
    if (found <= 0)
        return found;
    return value >= 0.0 && value < Py_HUGE_VAL; /* false for NaN */
}

/* True if graph is an exact dict of exact str keys to exact dicts, each of
   whose targets is an exact str key of graph and each of whose weights is
   plain; False otherwise. */
static PyObject *
plain_graph(PyObject *Py_UNUSED(module), PyObject *graph)
{
    PyObject *node, *neighbors, *target, *weight;
    Py_ssize_t i = 0, j;
    if (!PyDict_CheckExact(graph))
        Py_RETURN_FALSE;
    /* Every key is checked first, so a target lookup compares exact strs only. */
    while (PyDict_Next(graph, &i, &node, &neighbors)) {
        if (!PyUnicode_CheckExact(node) || !PyDict_CheckExact(neighbors))
            Py_RETURN_FALSE;
    }
    for (i = 0; PyDict_Next(graph, &i, &node, &neighbors);) {
        for (j = 0; PyDict_Next(neighbors, &j, &target, &weight);) {
            if (!PyUnicode_CheckExact(target))
                Py_RETURN_FALSE;
            int plain = plain_weight(weight);
            if (plain > 0)
                plain = PyDict_Contains(graph, target);
            if (plain < 0)
                return NULL;
            if (!plain)
                Py_RETURN_FALSE;
        }
    }
    Py_RETURN_TRUE;
}

/* The node ids of one document: an open-addressing table keyed by an id's
   raw bytes in the text, each slot holding the one str made for them. */
typedef struct {
    const Py_UCS1 *bytes;
    Py_ssize_t size;
    size_t hash;
    PyObject *id; /* NULL in an empty slot */
} id_slot;

typedef struct {
    id_slot *slots;
    size_t mask; /* slot count - 1; the count is a power of two */
    size_t used;
} id_table;

#define ID_TABLE_SLOTS 64
#define FNV_OFFSET 0xCBF29CE484222325ULL
#define FNV_PRIME 0x100000001B3ULL

static id_slot *
id_slot_for(id_slot *slots, size_t mask, const Py_UCS1 *bytes, Py_ssize_t size, size_t hash)
{
    size_t i = hash & mask;
    while (slots[i].id != NULL
           && !(slots[i].hash == hash && slots[i].size == size
                && memcmp(slots[i].bytes, bytes, size) == 0))
        i = (i + 1) & mask;
    return &slots[i];
}

/* The str of the id whose bytes (FNV-1a hash) are given, made on its first
   occurrence: borrowed from the table, or NULL with an error set. */
static PyObject *
intern_id(id_table *table, const Py_UCS1 *bytes, Py_ssize_t size, size_t hash)
{
    id_slot *slot = id_slot_for(table->slots, table->mask, bytes, size, hash);
    if (slot->id != NULL)
        return slot->id;
    PyObject *id = PyUnicode_FromKindAndData(PyUnicode_1BYTE_KIND, bytes, size);
    if (id == NULL)
        return NULL;
    *slot = (id_slot){bytes, size, hash, id};
    if (2 * ++table->used > table->mask) { /* at most half full */
        size_t mask = 2 * table->mask + 1;
        id_slot *slots = PyMem_Calloc(mask + 1, sizeof(id_slot));
        if (slots == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        for (size_t i = 0; i <= table->mask; i++) {
            id_slot *old = &table->slots[i];
            if (old->id != NULL)
                *id_slot_for(slots, mask, old->bytes, old->size, old->hash) = *old;
        }
        PyMem_Free(table->slots);
        table->slots = slots;
        table->mask = mask;
    }
    return id;
}

static void
free_id_table(id_table *table)
{
    for (size_t i = 0; table->slots != NULL && i <= table->mask; i++)
        Py_XDECREF(table->slots[i].id);
    PyMem_Free(table->slots);
}

#define IS_SPACE(c) ((c) == ' ' || (c) == '\t' || (c) == '\n' || (c) == '\r')
#define IS_DIGIT(c) ((c) >= '0' && (c) <= '9')

static inline const Py_UCS1 *
skip_space(const Py_UCS1 *p, const Py_UCS1 *end)
{
    while (p < end && IS_SPACE(*p))
        p++;
    return p;
}

/* The id of the key at *cursor, past which and its ":" *cursor moves:
   borrowed, or NULL, with an error set or without one to look closer. */
static PyObject *
read_key(id_table *ids, const Py_UCS1 **cursor, const Py_UCS1 *end)
{
    const Py_UCS1 *p = *cursor, *start;
    size_t hash = FNV_OFFSET;
    if (p == end || *p != '"')
        return NULL;
    for (start = ++p; p < end && *p != '"'; p++) {
        if (*p == '\\' || *p < 0x20)
            return NULL;
        hash = (hash ^ *p) * FNV_PRIME;
    }
    if (p == end)
        return NULL;
    const Py_UCS1 *colon = skip_space(p + 1, end);
    if (colon == end || *colon != ':')
        return NULL;
    *cursor = skip_space(colon + 1, end);
    return intern_id(ids, start, p - start, hash);
}

/* The weight at *cursor, past which *cursor moves: a new int of at most 18
   digits, a new finite float, or NULL, with an error set or without one to
   look closer. */
static PyObject *
read_number(const Py_UCS1 **cursor, const Py_UCS1 *end)
{
    const Py_UCS1 *start = *cursor, *p = start;
    unsigned long long value = 0;
    int fraction = 0;
    if (p == end || !IS_DIGIT(*p))
        return NULL;
    if (*p == '0')
        p++;
    else
        for (; p < end && IS_DIGIT(*p); p++)
            value = 10 * value + (*p - '0'); /* wraps past 20 digits, unread then */
    if (p < end && *p == '.') {
        if (++p == end || !IS_DIGIT(*p))
            return NULL;
        while (p < end && IS_DIGIT(*p))
            p++;
        fraction = 1;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        if (++p < end && (*p == '+' || *p == '-'))
            p++;
        if (p == end || !IS_DIGIT(*p))
            return NULL;
        while (p < end && IS_DIGIT(*p))
            p++;
        fraction = 1;
    }
    *cursor = p;
    if (!fraction)
        return p - start > 18 ? NULL : PyLong_FromLongLong((long long)value);
    /* The text's data ends in a NUL, and the token is a whole float literal,
       so the conversion stops at p, and gives the float json.loads gives. */
    char *parsed;
    double number = PyOS_string_to_double((const char *)start, &parsed, NULL);
    if ((number == -1.0 && PyErr_Occurred()) || (const Py_UCS1 *)parsed != p
        || !isfinite(number))
        return NULL;
    return PyFloat_FromDouble(number);
}

/* One step past an object's member at *cursor: 1 after a ",", 0 after the
   object's closing "}", -1 to look closer. */
static inline int
next_member(const Py_UCS1 **cursor, const Py_UCS1 *end)
{
    const Py_UCS1 *p = skip_space(*cursor, end);
    if (p == end || (*p != ',' && *p != '}'))
        return -1;
    *cursor = skip_space(p + 1, end);
    return *p == ',';
}

/* The dict json.loads(text) builds, for an exact str of the 1-byte kind
   holding an object of objects of numbers whose targets are all nodes, a
   graph plain_graph passes; None to look closer. */
static PyObject *
parse_plain_graph(PyObject *Py_UNUSED(module), PyObject *text)
{
    if (!PyUnicode_CheckExact(text) || PyUnicode_READY(text) < 0
        || PyUnicode_KIND(text) != PyUnicode_1BYTE_KIND) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;
    }
    const Py_UCS1 *p = PyUnicode_1BYTE_DATA(text), *end = p + PyUnicode_GET_LENGTH(text);
    id_table ids = {PyMem_Calloc(ID_TABLE_SLOTS, sizeof(id_slot)), ID_TABLE_SLOTS - 1, 0};
    PyObject *graph = PyDict_New(), *result = NULL;
    if (ids.slots == NULL || graph == NULL) {
        if (ids.slots == NULL)
            PyErr_NoMemory();
        goto done;
    }
    p = skip_space(p, end);
    if (p == end || *p != '{')
        goto look_closer;
    p = skip_space(p + 1, end);
    int more = p < end && *p == '}' ? (p++, 0) : 1;
    while (more) {
        PyObject *node = read_key(&ids, &p, end);
        if (node == NULL)
            goto look_closer_or_fail;
        if (p == end || *p != '{')
            goto look_closer;
        p = skip_space(p + 1, end);
        /* The graph holds the adjacency from the start, so a refusal part of
           the way through frees it with the graph. */
        PyObject *neighbors = PyDict_New();
        Py_ssize_t nodes = PyDict_GET_SIZE(graph);
        int failed = neighbors == NULL || PyDict_SetItem(graph, node, neighbors) < 0;
        Py_XDECREF(neighbors);
        if (failed)
            goto done;
        if (PyDict_GET_SIZE(graph) == nodes) /* a duplicate node */
            goto look_closer;
        int edges_left = p < end && *p == '}' ? (p++, 0) : 1;
        while (edges_left) {
            PyObject *target = read_key(&ids, &p, end);
            PyObject *weight = target == NULL ? NULL : read_number(&p, end);
            if (weight == NULL)
                goto look_closer_or_fail;
            Py_ssize_t edges = PyDict_GET_SIZE(neighbors);
            failed = PyDict_SetItem(neighbors, target, weight) < 0;
            Py_DECREF(weight);
            if (failed)
                goto done;
            if (PyDict_GET_SIZE(neighbors) == edges) /* a duplicate edge */
                goto look_closer;
            if ((edges_left = next_member(&p, end)) < 0)
                goto look_closer;
        }
        if ((more = next_member(&p, end)) < 0)
            goto look_closer;
    }
    if (skip_space(p, end) != end || ids.used != (size_t)PyDict_GET_SIZE(graph))
        goto look_closer; /* trailing data, or a target that is not a node */
    result = Py_NewRef(graph);
    goto done;
look_closer_or_fail:
    if (PyErr_Occurred())
        goto done;
look_closer:
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(graph);
    free_id_table(&ids);
    return result;
}

/* True if every adjacency of graph is an exact dict and each of its weights
   an exact int or float, whatever its value: emit_graph's loop then finds
   nothing.  False otherwise. */
static PyObject *
plain_weights(PyObject *Py_UNUSED(module), PyObject *graph)
{
    PyObject *node, *neighbors, *target, *weight;
    Py_ssize_t i = 0, j;
    if (!PyDict_CheckExact(graph))
        Py_RETURN_FALSE;
    while (PyDict_Next(graph, &i, &node, &neighbors)) {
        if (!PyDict_CheckExact(neighbors))
            Py_RETURN_FALSE;
        for (j = 0; PyDict_Next(neighbors, &j, &target, &weight);) {
            if (!PyLong_CheckExact(weight) && !PyFloat_CheckExact(weight))
                Py_RETURN_FALSE;
        }
    }
    Py_RETURN_TRUE;
}

/* Read the offset of type's own _value slot into value_offset, once per
   type: 0, or -1 with TypeError if type has no such slot. */
static int
bind_finite_type(PyObject *type)
{
    if (type == (PyObject *)finite_type)
        return 0;
    if (!PyType_Check(type)) {
        PyErr_Format(PyExc_TypeError, "finite_type must be a type, got %.200s",
                     Py_TYPE(type)->tp_name);
        return -1;
    }
    PyObject *slot = PyObject_GetAttrString(type, "_value");
    if (slot == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
    }
    int found = slot != NULL && Py_IS_TYPE(slot, &PyMemberDescr_Type)
        && ((PyDescrObject *)slot)->d_type == (PyTypeObject *)type
        && ((PyMemberDescrObject *)slot)->d_member->type == Py_T_OBJECT_EX;
    Py_ssize_t offset = found ? ((PyMemberDescrObject *)slot)->d_member->offset : 0;
    Py_XDECREF(slot);
    if (!found) {
        PyErr_Format(PyExc_TypeError, "%.200s has no _value slot of its own",
                     ((PyTypeObject *)type)->tp_name);
        return -1;
    }
    Py_INCREF(type);
    Py_XSETREF(finite_type, (PyTypeObject *)type);
    value_offset = offset;
    return 0;
}

/* The finite weight of value, which plain_weight passed: a new reference. */
static PyObject *
finite_weight(PyObject *value)
{
    double image_of_value = 0.0; /* image() sets it: value passed plain_weight */
    PyObject *payload;
    if (PyFloat_CheckExact(value) && PyFloat_AS_DOUBLE(value) != 0.0) {
        payload = Py_NewRef(value);
    }
    else {
        if (image(value, 1, &image_of_value) < 0)
            return NULL;
        /* 0.0 for both zeros: -0.0 folds into +0.0, as __init__ does */
        payload = PyFloat_FromDouble(image_of_value == 0.0 ? 0.0 : image_of_value);
        if (payload == NULL)
            return NULL;
    }
    PyObject *weight = finite_type->tp_alloc(finite_type, 0);
    if (weight == NULL) {
        Py_DECREF(payload);
        return NULL;
    }
    *(PyObject **)((char *)weight + value_offset) = payload;
    return weight;
}

/* True after converting every value of distances in place, False with
   distances untouched when a key or value needs the Python loop. */
static PyObject *
from_search(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError,
                     "from_search expects 4 arguments, got %zd", nargs);
        return NULL;
    }
    PyObject *infinity_weight = args[1], *distances = args[2], *infinity = args[3];
    PyObject *node, *value;
    Py_ssize_t i = 0;
    if (bind_finite_type(args[0]) < 0)
        return NULL;
    if (!PyDict_CheckExact(distances))
        Py_RETURN_FALSE;
    while (PyDict_Next(distances, &i, &node, &value)) {
        if (!PyUnicode_CheckExact(node))
            Py_RETURN_FALSE;
        if (value != infinity) {
            int plain = plain_weight(value);
            if (plain < 0)
                return NULL;
            if (!plain)
                Py_RETURN_FALSE;
        }
    }
    /* Replacing the value of a present key keeps the key set, so the
       iteration stays valid; the node is held because an allocation can run
       the garbage collector. */
    for (i = 0; PyDict_Next(distances, &i, &node, &value);) {
        Py_INCREF(node);
        PyObject *weight = value == infinity ? Py_NewRef(infinity_weight) : finite_weight(value);
        int failed = weight == NULL || PyDict_SetItem(distances, node, weight) < 0;
        Py_DECREF(node);
        Py_XDECREF(weight);
        if (failed)
            return NULL;
    }
    Py_RETURN_TRUE;
}

/* SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) with the constants of
   generators.py; BLOCK is generators._BLOCK. */
#define BLOCK 512
#define GAMMA 0x9E3779B97F4A7C15ULL

/* The mixed block of outputs 1 to BLOCK steps past state, laid out as
   generators._mix_words returns it. */
static PyObject *
splitmix_block(PyObject *Py_UNUSED(module), PyObject *state_arg)
{
    unsigned long long state = PyLong_AsUnsignedLongLong(state_arg);
    if (state == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    uint64_t words[BLOCK];
    for (int step = 1; step <= BLOCK; step++) {
        uint64_t z = state + step * GAMMA;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        words[BLOCK - step] = z ^ (z >> 31);
    }
    return PyBytes_FromStringAndSize((const char *)words, sizeof words);
}

static PyMethodDef absinf_functions[] = {
    {"plain_graph", plain_graph, METH_O,
     "plain_graph(graph) -> bool\n\nTrue only if graphs.validate(graph) would find nothing: exact\n"
     "dict, str, int and float types, every target a node, every weight\n"
     "finite and non-negative.  False means look closer."},
    {"parse_plain_graph", parse_plain_graph, METH_O,
     "parse_plain_graph(text) -> dict or None\n\nThe graph json.loads(text) builds, when text is an exact str of\n"
     "latin-1 characters holding an object of objects of unsigned numbers,\n"
     "with no escape, duplicate key, trailing data or dangling target: a\n"
     "graph plain_graph passes, each distinct id one str.  None means look closer."},
    {"plain_weights", plain_weights, METH_O,
     "plain_weights(graph) -> bool\n\nTrue only if graph and each adjacency are exact dicts and every\n"
     "weight is an exact int or float.  False means look closer."},
    {"from_search", (PyCFunction)(void (*)(void))from_search, METH_FASTCALL,
     "from_search(finite_type, infinity_weight, distances, infinity) -> bool\n\n"
     "Convert a search's fresh distance map in place and return True: infinity\n"
     "itself becomes infinity_weight, an exact int or float in [0, inf) a\n"
     "finite_type with that _value.  False, with distances untouched, means\n"
     "look closer."},
    {"splitmix_block", splitmix_block, METH_O,
     "splitmix_block(state) -> bytes\n\nThe SplitMix64 outputs 1 to 512 steps past state, an int in\n"
     "[0, 2**64), as generators._mix_words(state) lays them out: native-order\n"
     "64-bit words, the last output first."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject AbsInf_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "extinf._absinf.AbsInf",
    .tp_basicsize = sizeof(PyObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_DISALLOW_INSTANTIATION,
    .tp_doc = "Base of INFINITY's type: comparisons and hash of +inf, in C.",
    .tp_richcompare = absinf_richcompare,
    .tp_hash = absinf_hash,
};

static struct PyModuleDef absinf_module = {
    PyModuleDef_HEAD_INIT, "_absinf",
    "The C comparisons of extinf's INFINITY, its search conversion, its graph checks,\n"
    "its decoder of graph documents and its SplitMix64 mixing.", -1,
    absinf_functions, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__absinf(void)
{
    PyObject *inf = PyFloat_FromDouble(Py_HUGE_VAL);
    if (inf == NULL)
        return NULL;
    inf_hash = PyObject_Hash(inf);
    Py_DECREF(inf);
    neg_inf = PyFloat_FromDouble(-Py_HUGE_VAL);
    PyObject *mantissa = PyLong_FromUnsignedLongLong((1ULL << 54) - 1);
    PyObject *shift = PyLong_FromLong(970);
    if (mantissa != NULL && shift != NULL)
        rounds_to_inf = PyNumber_Lshift(mantissa, shift); /* 2**1024 - 2**970 */
    Py_XDECREF(mantissa);
    Py_XDECREF(shift);
    if (inf_hash == -1 || neg_inf == NULL || rounds_to_inf == NULL || PyType_Ready(&AbsInf_Type) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&absinf_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "AbsInf", (PyObject *)&AbsInf_Type) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
